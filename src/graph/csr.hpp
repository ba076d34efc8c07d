// `graph::CsrGraph` is an alias kept only because perfbench/layers.cpp
// spells that name; graph::FlowNetwork is the one graph type.
#pragma once

#include "graph/network.hpp"

namespace aflow::graph {

using CsrGraph = FlowNetwork; // kept for perfbench/layers.cpp

} // namespace aflow::graph
