#include <algorithm>
#include <limits>
#include <queue>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"

namespace aflow::flow {

MaxFlowResult edmonds_karp(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel) {
  detail::Residual r(net, cancel);
  const graph::ArcLayout& g = *r.layout;
  const int s = r.vertex(net.source());
  const int t = r.vertex(net.sink());
  MaxFlowResult result;

  std::vector<int> pred_arc(r.n);
  for (;;) {
    cancel.check(); // one check per augmenting-path BFS
    std::fill(pred_arc.begin(), pred_arc.end(), -1);
    pred_arc[s] = -2;
    std::queue<int> q;
    q.push(s);
    while (!q.empty() && pred_arc[t] == -1) {
      const int v = q.front();
      q.pop();
      for (int arc = g.start[v]; arc < g.start[v + 1]; ++arc) {
        const int u = g.head[arc];
        if (pred_arc[u] == -1 && r.cap[arc] > 0.0) {
          pred_arc[u] = arc;
          q.push(u);
        }
      }
    }
    if (pred_arc[t] == -1) break;

    double bottleneck = std::numeric_limits<double>::infinity();
    for (int v = t; v != s;) {
      const int arc = pred_arc[v];
      bottleneck = std::min(bottleneck, r.cap[arc]);
      v = g.head[g.sister[arc]];
    }
    for (int v = t; v != s;) {
      const int arc = pred_arc[v];
      r.cap[arc] -= bottleneck;
      r.cap[g.sister[arc]] += bottleneck;
      v = g.head[g.sister[arc]];
    }
    result.flow_value += bottleneck;
    result.operations++;
  }

  result.edge_flow = r.edge_flows(net);
  return result;
}

} // namespace aflow::flow
