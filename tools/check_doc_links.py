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

3. Metrics keys. Every key that ``core::write_metrics_fields``
   (``src/core/batch_engine.cpp``), the one ``SolveMetrics`` JSON writer
   behind serve responses and ``aflow bench --json``, emits must name a
   table row of ``docs/BENCH_FORMAT.md`` (a backticked name in the row's
   first cell).

Stdlib only; run from anywhere inside the repo.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CODE_DIRS = ["src", "tests", "bench", "tools"]
CODE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".py"}
SKIP_DIRS = {".git", "build", ".claude"}
CITED_DOCS = ("DESIGN.md", "EXPERIMENTS.md")

METRICS_WRITER = REPO / "src" / "core" / "batch_engine.cpp"
METRICS_DOC = REPO / "docs" / "BENCH_FORMAT.md"

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


def metrics_writer_keys():
    """Keys in the body of write_metrics_fields, in write order."""
    text = METRICS_WRITER.read_text(encoding="utf-8")
    body = re.search(r"^void write_metrics_fields\(.*?^\}", text, re.S | re.M)
    return re.findall(r'j\.field\("(\w+)"', body.group(0)) if body else []


def documented_table_keys(md_path):
    """Backticked names in the first cell of every markdown table row."""
    keys = set()
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return keys


def check_metrics_keys(failures):
    keys = metrics_writer_keys()
    if not keys:
        failures.append(
            f"{METRICS_WRITER.relative_to(REPO)}: no write_metrics_fields "
            f"body with j.field keys found")
        return
    documented = documented_table_keys(METRICS_DOC)
    for key in keys:
        if key not in documented:
            failures.append(
                f"{METRICS_DOC.relative_to(REPO)}: metrics key `{key}` "
                f"(written by core::write_metrics_fields) has no table row")


def main():
    failures = []
    check_metrics_keys(failures)

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
          "and every metrics key is documented.")
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
