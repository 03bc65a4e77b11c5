#include "mapper/route.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

namespace dsra::map {

namespace {

struct QEntry {
  double cost;
  RRNodeId node;
  bool operator>(const QEntry& o) const { return cost > o.cost; }
};

/// Access-node sets for each pin of a net.
struct NetTerminals {
  std::vector<RRNodeId> source;               ///< driver access nodes
  std::vector<std::vector<RRNodeId>> sinks;   ///< per sink access nodes
};

NetTerminals terminals_for(const Placement& pl, const RRGraph& g, const Net& net) {
  const Layer layer = RRGraph::layer_for_width(net.width);
  NetTerminals t;
  if (net.driver.node != kInvalidId) {
    t.source = g.tile_access(pl.tile_of(net.driver.node), layer);
  } else {
    t.source = g.tile_access(pl.input_pad[static_cast<std::size_t>(net.driver.port)].tile, layer);
  }
  for (const auto& s : net.sinks) {
    if (s.node != kInvalidId) {
      t.sinks.push_back(g.tile_access(pl.tile_of(s.node), layer));
    } else {
      t.sinks.push_back(
          g.tile_access(pl.output_pad[static_cast<std::size_t>(s.port)].tile, layer));
    }
  }
  return t;
}

}  // namespace

RouteResult route(const Netlist& netlist, const Placement& placement, const RRGraph& graph,
                  const RouteParams& params) {
  const int n_nodes = graph.node_count();
  std::vector<int> usage(static_cast<std::size_t>(n_nodes), 0);
  std::vector<double> history(static_cast<std::size_t>(n_nodes), 0.0);

  RouteResult result;
  result.nets.assign(netlist.nets().size(), RoutedNet{});

  // Pre-compute terminals; order nets widest-first (hardest to fit).
  std::vector<NetTerminals> terms(netlist.nets().size());
  std::vector<NetId> order;
  for (std::size_t i = 0; i < netlist.nets().size(); ++i) {
    const Net& net = netlist.nets()[i];
    result.nets[i].net = static_cast<NetId>(i);
    result.nets[i].layer = RRGraph::layer_for_width(net.width);
    result.nets[i].demand = RRGraph::demand_units(net.width);
    if (net.sinks.empty()) continue;
    terms[i] = terminals_for(placement, graph, net);
    order.push_back(static_cast<NetId>(i));
  }
  std::stable_sort(order.begin(), order.end(), [&](NetId a, NetId b) {
    return result.nets[static_cast<std::size_t>(a)].demand >
           result.nets[static_cast<std::size_t>(b)].demand;
  });

  double pres_fac = params.present_factor;

  // Dijkstra scratch. Membership flags are epoch-marked instead of
  // cleared: visit_mark/target_mark hold the epoch of the current sink
  // search, tree_mark the epoch of the net being routed.
  std::vector<double> dist(static_cast<std::size_t>(n_nodes));
  std::vector<RRNodeId> prev(static_cast<std::size_t>(n_nodes));
  std::vector<int> visit_mark(static_cast<std::size_t>(n_nodes), -1);
  std::vector<int> target_mark(static_cast<std::size_t>(n_nodes), -1);
  std::vector<int> tree_mark(static_cast<std::size_t>(n_nodes), -1);
  std::vector<QEntry> heap;  // min-heap on cost via std::greater
  int visit_epoch = 0;
  int tree_epoch = 0;

  auto node_cost = [&](RRNodeId n, int demand) {
    const int over = usage[static_cast<std::size_t>(n)] + demand - graph.capacity(n);
    const double present = over > 0 ? 1.0 + pres_fac * static_cast<double>(over) : 1.0;
    return (1.0 + history[static_cast<std::size_t>(n)]) * present;
  };

  for (int iter = 1; iter <= params.max_iterations; ++iter) {
    result.iterations = iter;
    for (const NetId id : order) {
      RoutedNet& rn = result.nets[static_cast<std::size_t>(id)];
      // Rip up the previous tree.
      for (const RRNodeId n : rn.tree) usage[static_cast<std::size_t>(n)] -= rn.demand;
      rn.tree.clear();
      rn.sink_hops.assign(terms[static_cast<std::size_t>(id)].sinks.size(), 0);

      const NetTerminals& t = terms[static_cast<std::size_t>(id)];
      std::vector<RRNodeId> tree;           // nodes of the growing route tree
      ++tree_epoch;

      for (std::size_t sink_i = 0; sink_i < t.sinks.size(); ++sink_i) {
        // Dijkstra sources: current tree (cost 0 to re-use) or the driver
        // access nodes (entry cost) for the first sink.
        ++visit_epoch;
        heap.clear();
        auto relax = [&](RRNodeId n, double c, RRNodeId from) {
          if (visit_mark[static_cast<std::size_t>(n)] == visit_epoch &&
              dist[static_cast<std::size_t>(n)] <= c)
            return;
          visit_mark[static_cast<std::size_t>(n)] = visit_epoch;
          dist[static_cast<std::size_t>(n)] = c;
          prev[static_cast<std::size_t>(n)] = from;
          heap.push_back({c, n});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        };
        if (tree.empty()) {
          for (const RRNodeId s : t.source) relax(s, node_cost(s, rn.demand), kInvalidId);
        } else {
          for (const RRNodeId s : tree) relax(s, 0.0, kInvalidId);
        }

        for (const RRNodeId n : t.sinks[sink_i])
          target_mark[static_cast<std::size_t>(n)] = visit_epoch;
        RRNodeId reached = kInvalidId;
        while (!heap.empty()) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
          const QEntry e = heap.back();
          heap.pop_back();
          if (visit_mark[static_cast<std::size_t>(e.node)] == visit_epoch &&
              e.cost > dist[static_cast<std::size_t>(e.node)])
            continue;
          if (target_mark[static_cast<std::size_t>(e.node)] == visit_epoch) {
            reached = e.node;
            break;
          }
          for (const RRNodeId nb : graph.neighbors(e.node))
            relax(nb, e.cost + node_cost(nb, rn.demand), e.node);
        }
        if (reached == kInvalidId) {
          // Disconnected graph should never happen on a mesh; treat as fatal.
          throw std::runtime_error("router: unreachable sink on net '" +
                                   netlist.net(id).name + "'");
        }
        // Backtrace; count hops for timing and add new nodes to the tree.
        int hops = 0;
        for (RRNodeId n = reached; n != kInvalidId; n = prev[static_cast<std::size_t>(n)]) {
          ++hops;
          if (tree_mark[static_cast<std::size_t>(n)] != tree_epoch) {
            tree_mark[static_cast<std::size_t>(n)] = tree_epoch;
            tree.push_back(n);
          }
        }
        rn.sink_hops[sink_i] = hops;
      }

      rn.tree = std::move(tree);
      for (const RRNodeId n : rn.tree) usage[static_cast<std::size_t>(n)] += rn.demand;
    }

    // Congestion check.
    int overused = 0;
    for (int n = 0; n < n_nodes; ++n) {
      const int over = usage[static_cast<std::size_t>(n)] - graph.capacity(n);
      if (over > 0) {
        ++overused;
        history[static_cast<std::size_t>(n)] += params.history_factor * static_cast<double>(over);
      }
    }
    result.overused_nodes = overused;
    if (overused == 0) {
      result.success = true;
      break;
    }
    pres_fac *= params.present_factor_growth;
  }

  result.total_usage = 0;
  result.max_channel_usage = 0;
  result.wirelength = 0.0;
  for (int n = 0; n < n_nodes; ++n) {
    result.total_usage += usage[static_cast<std::size_t>(n)];
    result.max_channel_usage = std::max(result.max_channel_usage, usage[static_cast<std::size_t>(n)]);
  }
  for (const auto& rn : result.nets)
    result.wirelength += static_cast<double>(rn.tree.size()) * rn.demand;
  return result;
}

}  // namespace dsra::map
