#!/usr/bin/env python3
"""Intra-repo documentation link and citation checker (CI gate).

Three classes of reference are validated, and the script exits nonzero with
a per-failure report if any dangles:

1. Markdown links. Every ``[text](target)`` in a tracked ``*.md`` file whose
   target is not an external URL must resolve to an existing file (relative
   to the linking file), and a ``#anchor`` suffix must match a heading of
   the target (GitHub slug rules: lowercase, alphanumerics and hyphens,
   spaces to hyphens).

2. Doc citations in code. Comments and strings under ``src/``, ``tests/``,
   ``bench/``, and ``tools/`` may cite the design docs; every mention of
   DESIGN.md or EXPERIMENTS.md must carry a quoted section title —
   ``DESIGN.md "Fidelity ladder"`` — and both the file and a matching
   ``##``/``#`` heading must exist. Citations may wrap across comment lines
   and live inside C string literals (``\\"`` and ``%%`` are normalised
   before matching).

3. Telemetry counters. Every row of the two counter tables, the
   ``AFLOW_SOLVE_COUNTERS`` X-macro (``src/flow/maxflow.hpp``: the
   ``SolveMetrics`` fields and the metrics object of serve responses and
   ``aflow bench --json``) and ``AFLOW_FRONT_COUNTERS``
   (``src/core/serve_front.hpp``: the ``front`` object of ``stats``), must
   name a table row of ``docs/BENCH_FORMAT.md`` (a backticked name in the
   row's first cell). A table that is missing or has no ``X(name)`` rows
   fails the check too.

4. Serve requests. Every row of the request table
   (``kCommands`` in ``ServeSession::handle``, ``src/core/serve_engine.cpp``:
   a request's name, handler and flags) must be a line of the request-grammar
   block of ``docs/BENCH_FORMAT.md`` naming every flag of that row, and the
   block may name no request or flag the table lacks. A missing table
   fails the check too.

5. CLI invocations. A fenced code block of ``README.md`` or
   ``docs/BENCH_FORMAT.md`` may run ``aflow COMMAND`` only for a command of
   the command table (``kCommands`` in ``tools/aflow_cli.cpp``) and may pass
   it only flags that the command's row declares (backslash continuations
   are joined; a command's flags end at the first shell operator). A
   missing table fails the check too.

Stdlib only; run from anywhere inside the repo.
"""
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CODE_DIRS = ["src", "tests", "bench", "tools"]
CODE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".py"}
SKIP_DIRS = {".git", "build", ".claude"}
CITED_DOCS = ("DESIGN.md", "EXPERIMENTS.md")

COUNTER_TABLES = {
    "AFLOW_SOLVE_COUNTERS": REPO / "src" / "flow" / "maxflow.hpp",
    "AFLOW_FRONT_COUNTERS": REPO / "src" / "core" / "serve_front.hpp",
}
METRICS_DOC = REPO / "docs" / "BENCH_FORMAT.md"
SERVE_TABLE = REPO / "src" / "core" / "serve_engine.cpp"
CLI_TABLE = REPO / "tools" / "aflow_cli.cpp"
CLI_DOCS = [REPO / "README.md", METRICS_DOC]

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CITATION = re.compile(
    r"\b(DESIGN\.md|EXPERIMENTS\.md)\b(\s*\"([^\"]{1,120})\")?")


def md_files():
    for path in sorted(REPO.rglob("*.md")):
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            yield path


def code_files():
    for d in CODE_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            # The checker itself holds the citation patterns as data.
            if path.suffix in CODE_SUFFIXES and path.name != "check_doc_links.py":
                yield path


def github_slug(heading):
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return re.sub(r" ", "-", slug)


def headings_of(md_path):
    titles, slugs = [], set()
    for line in md_path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"#{1,6}\s+(.*)", line)
        if m:
            titles.append(m.group(1).strip())
            slugs.add(github_slug(m.group(1)))
    return titles, slugs


def normalise_code(text):
    """Joins wrapped comment/string lines so a citation can be matched as
    one run of text: C string-literal breaks ("..." "..."), comment
    continuations, printf %% and \\" escapes."""
    text = text.replace('\\"', '"').replace("%%", "%")
    # "abc"  "def" adjacent string literals -> abc def
    text = re.sub(r'"\s*\n\s*"', " ", text)
    # newline + comment leader -> single space
    text = re.sub(r"\s*\n\s*(?:///?|\*+(?!/)|#)?\s*", " ", text)
    # string-literal joins can double interior spaces
    return re.sub(r"  +", " ", text)


def counter_rows(path, macro):
    """Counter names in the X(name) rows of the X-macro table `macro` (its
    #define and every backslash-continued line after it), in order."""
    text = path.read_text(encoding="utf-8")
    table = re.search(r"^#define " + macro + r"\(X\)((?:[^\n]*\\\n)*[^\n]*)",
                      text, re.M)
    return re.findall(r"\bX\((\w+)\)", table.group(1)) if table else []


def documented_table_keys(md_path):
    """Backticked names in the first cell of every markdown table row."""
    keys = set()
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def check_counter_tables(failures):
    documented = documented_table_keys(METRICS_DOC)
    for macro, path in COUNTER_TABLES.items():
        rel = path.relative_to(REPO)
        rows = counter_rows(path, macro)
        if not rows:
            failures.append(f"{rel}: no {macro} table with X(name) rows found")
        for name in rows:
            if name not in documented:
                failures.append(
                    f"{METRICS_DOC.relative_to(REPO)}: counter `{name}` "
                    f"({macro} in {rel}) has no table row")


def command_table(path, table_re, row_re):
    """{command: [flags]} from the rows of a command table (`table_re`
    captures its body, `row_re` a row's name), or None when the table is
    missing."""
    text = path.read_text(encoding="utf-8")
    table = re.search(table_re, text, re.S)
    if not table:
        return None
    rows = list(re.finditer(row_re, table.group(1)))
    return {
        row.group(1): re.findall(
            r'\{"(--[\w-]+)"',
            table.group(1)[row.end():rows[i + 1].start() if i + 1 < len(rows)
                           else None])
        for i, row in enumerate(rows)}


def serve_grammar(md_path):
    """{request: {flags}} from the first fenced block after "Request grammar"
    (a line per request; indented lines continue the one above)."""
    text = md_path.read_text(encoding="utf-8")
    block = re.search(r"Request grammar[^\n]*\n+```\n(.*?)```", text, re.S)
    grammar, request = {}, None
    for line in block.group(1).splitlines() if block else []:
        if line and not line[0].isspace():
            request = line.split()[0]
            grammar[request] = set()
        if request:
            grammar[request].update(re.findall(r"--[\w-]+", line))
    return grammar


def check_serve_grammar(failures):
    table = command_table(SERVE_TABLE, r"kCommands = \{(.*?)\n\s*\};",
                          r'\{"(\w+)",\s*&\w+::\w+')
    doc = METRICS_DOC.relative_to(REPO)
    if not table:
        failures.append(f"{SERVE_TABLE.relative_to(REPO)}: no kCommands "
                        f"request table found")
        return
    grammar = serve_grammar(METRICS_DOC)
    for request, flags in table.items():
        if request not in grammar:
            failures.append(f"{doc}: serve request `{request}` has no "
                            f"request-grammar line")
            continue
        for flag in flags:
            if flag not in grammar[request]:
                failures.append(f"{doc}: `{request} {flag}` is missing from "
                                f"the request grammar")
    for request, flags in grammar.items():
        if request not in table:
            failures.append(f"{doc}: the request grammar names `{request}`, "
                            f"which the request table lacks")
            continue
        for flag in sorted(flags - set(table[request])):
            failures.append(f"{doc}: the request grammar names `{request} "
                            f"{flag}`, which the request table lacks")


def cli_invocations(md_path):
    """(command, [flags]) for every `aflow COMMAND ...` in the fenced code
    blocks of md_path."""
    text = md_path.read_text(encoding="utf-8")
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            for m in re.finditer(r"(?<![\w-])aflow\s+([a-z]\w*)", line):
                lexer = shlex.shlex(line[m.end():], posix=True,
                                    punctuation_chars=True)
                lexer.whitespace_split = True
                flags = []
                for token in lexer:
                    if set(token) <= set("();<>|&"):
                        break
                    if token.startswith("--"):
                        flags.append(token.split("=")[0])
                yield m.group(1), flags


def check_cli_invocations(failures):
    table = command_table(CLI_TABLE, r"kCommands\[\] = \{(.*?)\n\};",
                          r'\{"(\w+)",\s*cmd_\w+')
    if not table:
        failures.append(f"{CLI_TABLE.relative_to(REPO)}: no kCommands "
                        f"command table found")
        return
    for md in CLI_DOCS:
        rel = md.relative_to(REPO)
        for command, flags in cli_invocations(md):
            if command not in table:
                failures.append(f"{rel}: a code block runs `aflow {command}`, "
                                f"which the command table lacks")
                continue
            for flag in flags:
                if flag not in table[command]:
                    failures.append(f"{rel}: a code block passes `aflow "
                                    f"{command} {flag}`, which the command "
                                    f"table does not declare")


def main():
    failures = []
    check_counter_tables(failures)
    check_serve_grammar(failures)
    check_cli_invocations(failures)

    for md in md_files():
        rel = md.relative_to(REPO)
        text = md.read_text(encoding="utf-8")
        for m in MD_LINK.finditer(text):
            target = m.group(1)
            if re.match(r"[a-z]+://|mailto:", target):
                continue
            path_part, _, anchor = target.partition("#")
            dest = md if not path_part else (md.parent / path_part).resolve()
            if not dest.exists():
                failures.append(f"{rel}: dangling link ({target})")
                continue
            if anchor and dest.suffix == ".md":
                _, slugs = headings_of(dest)
                if anchor not in slugs:
                    failures.append(
                        f"{rel}: link anchor #{anchor} not a heading of "
                        f"{dest.relative_to(REPO)}")
        # Sectioned citations inside the docs themselves are validated too.
        for m in CITATION.finditer(normalise_code(text)):
            if m.group(3):
                check_citation(rel, m, failures)

    for src in code_files():
        rel = src.relative_to(REPO)
        text = normalise_code(src.read_text(encoding="utf-8"))
        for m in CITATION.finditer(text):
            if not m.group(3):
                context = text[max(0, m.start() - 40):m.end() + 40]
                failures.append(
                    f"{rel}: citation of {m.group(1)} without a quoted "
                    f'section title (cite as: {m.group(1)} "Section") '
                    f"near: ...{context}...")
                continue
            check_citation(rel, m, failures)

    if failures:
        print(f"check_doc_links: {len(failures)} dangling reference(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print("check_doc_links: all markdown links and doc citations resolve, "
          "every telemetry counter is documented, the serve request "
          "grammar matches the request table, and every documented aflow "
          "command line uses only declared flags.")
    return 0


def check_citation(rel, match, failures):
    doc, section = match.group(1), match.group(3)
    doc_path = REPO / doc
    if not doc_path.exists():
        failures.append(f"{rel}: citation of missing file {doc}")
        return
    titles, _ = headings_of(doc_path)
    if section not in titles:
        failures.append(
            f'{rel}: {doc} has no section "{section}" '
            f"(sections: {', '.join(titles)})")


if __name__ == "__main__":
    sys.exit(main())
