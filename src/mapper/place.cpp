#include "mapper/place.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace dsra::map {

namespace {

/// Twice a net's weight per tile of bounding-box span: a 1-bit net weighs
/// 0.5 and a bus net its track demand ceil(width/8), so wide nets that
/// pressure the router also pressure the placer. Counting in half-units
/// keeps every cost an exact integer.
int weight_halves(const Net& net) {
  return net.width <= 1 ? 1 : 2 * ((net.width + 7) / 8);
}

/// Tile a pin contributes to its net's bounding box.
TileCoord pin_tile(const Placement& pl, const PinRef& pin, bool is_driver) {
  if (pin.node != kInvalidId) return pl.tile_of(pin.node);
  // Netlist-level port: driver => primary input pad, sink => output pad.
  return is_driver ? pl.input_pad[static_cast<std::size_t>(pin.port)].tile
                   : pl.output_pad[static_cast<std::size_t>(pin.port)].tile;
}

/// Half-perimeter of the bounding box of @p tiles (non-empty).
template <typename TileOf>
int bbox_span(std::size_t count, TileOf&& tile_of) {
  const TileCoord first = tile_of(0);
  int min_x = first.x, max_x = first.x, min_y = first.y, max_y = first.y;
  for (std::size_t i = 1; i < count; ++i) {
    const TileCoord t = tile_of(i);
    min_x = std::min(min_x, t.x);
    max_x = std::max(max_x, t.x);
    min_y = std::min(min_y, t.y);
    max_y = std::max(max_y, t.y);
  }
  return (max_x - min_x) + (max_y - min_y);
}

/// Weighted HPWL of @p net in half-units.
int net_hpwl_halves(const Placement& pl, const Net& net) {
  if (net.sinks.empty()) return 0;
  const int span = bbox_span(net.sinks.size() + 1, [&](std::size_t i) {
    return i == 0 ? pin_tile(pl, net.driver, /*is_driver=*/true)
                  : pin_tile(pl, net.sinks[i - 1], /*is_driver=*/false);
  });
  return weight_halves(net) * span;
}

}  // namespace

double wirelength(const Netlist& netlist, const Placement& placement) {
  long long halves = 0;
  for (const auto& net : netlist.nets()) halves += net_hpwl_halves(placement, net);
  return 0.5 * static_cast<double>(halves);
}

PlaceResult place(const Netlist& netlist, const ArrayArch& arch, const PlaceParams& params) {
  Rng rng(params.seed);
  const auto& nodes = netlist.nodes();
  const auto& nets = netlist.nets();

  // Group nodes by kind (in ClusterKind order, which fixes the RNG draw
  // sequence) and give each kind a site pool: sites[slot] is a tile of
  // that kind, occupant[slot] the node on it (or kInvalidId), and node i
  // sits on slot_of[i] of its kind's pool.
  std::map<ClusterKind, std::vector<NodeId>> nodes_by_kind;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    nodes_by_kind[kind_of(nodes[i].config)].push_back(static_cast<NodeId>(i));

  struct KindPool {
    std::vector<NodeId> nodes;
    std::vector<TileCoord> sites;
    std::vector<NodeId> occupant;
  };
  std::vector<KindPool> pools;
  std::vector<int> slot_of(nodes.size(), -1);

  Placement pl;
  pl.node_tile.assign(nodes.size(), TileCoord{0, 0});
  for (auto& [kind, kind_nodes] : nodes_by_kind) {
    auto sites = arch.sites_of(kind);
    if (sites.size() < kind_nodes.size())
      throw std::runtime_error(std::string("architecture '") + arch.name() + "' provides " +
                               std::to_string(sites.size()) + " " + to_string(kind) +
                               " sites but netlist '" + netlist.name() + "' needs " +
                               std::to_string(kind_nodes.size()));
    // Deterministic random initial assignment.
    for (std::size_t i = sites.size(); i > 1; --i)
      std::swap(sites[i - 1], sites[rng.next_below(i)]);
    std::vector<NodeId> occupant(sites.size(), kInvalidId);
    for (std::size_t i = 0; i < kind_nodes.size(); ++i) {
      pl.node_tile[static_cast<std::size_t>(kind_nodes[i])] = sites[i];
      occupant[i] = kind_nodes[i];
      slot_of[static_cast<std::size_t>(kind_nodes[i])] = static_cast<int>(i);
    }
    pools.push_back({std::move(kind_nodes), std::move(sites), std::move(occupant)});
  }

  // Pads: inputs along the west edge then north edge, outputs along east
  // then south, spread evenly. Deterministic.
  const int w = arch.width(), h = arch.height();
  auto spread = [&](std::size_t count, bool inputs) {
    std::vector<PadPos> pads(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double f = count == 1 ? 0.5 : static_cast<double>(i) / static_cast<double>(count - 1);
      if (inputs) {
        // West edge from south to north, wrapping onto the north edge.
        const int pos = static_cast<int>(f * static_cast<double>(h + w - 2));
        pads[i].tile = pos < h ? TileCoord{0, pos} : TileCoord{pos - h + 1, h - 1};
      } else {
        const int pos = static_cast<int>(f * static_cast<double>(h + w - 2));
        pads[i].tile = pos < h ? TileCoord{w - 1, pos} : TileCoord{pos - h + 1, 0};
      }
    }
    return pads;
  };
  pl.input_pad = spread(netlist.inputs().size(), true);
  pl.output_pad = spread(netlist.outputs().size(), false);

  PlaceResult result;
  result.initial_wirelength = wirelength(netlist, pl);
  if (pools.empty()) {
    result.placement = std::move(pl);
    result.final_wirelength = result.initial_wirelength;
    return result;
  }

  // Flat annealer state. tile[] holds every pin location: node tiles
  // first, then the fixed input pads, then the fixed output pads. A net's
  // pins are net_pins[net_begin[n] .. net_begin[n + 1]) (driver first,
  // sink-less nets have none). net_cost[n] caches each net's weighted HPWL
  // in half-units for the current placement.
  const std::size_t n_nodes = nodes.size();
  const std::size_t n_inputs = pl.input_pad.size();
  std::vector<TileCoord> tile(pl.node_tile);
  for (const PadPos& pad : pl.input_pad) tile.push_back(pad.tile);
  for (const PadPos& pad : pl.output_pad) tile.push_back(pad.tile);
  const auto pin_index = [&](const PinRef& pin, bool is_driver) {
    if (pin.node != kInvalidId) return static_cast<int>(pin.node);
    return static_cast<int>(n_nodes + (is_driver ? 0 : n_inputs)) + pin.port;
  };
  std::vector<int> net_begin{0};
  std::vector<int> net_pins;
  std::vector<int> net_weight;
  for (const Net& net : nets) {
    if (!net.sinks.empty()) {
      net_pins.push_back(pin_index(net.driver, /*is_driver=*/true));
      for (const auto& s : net.sinks) net_pins.push_back(pin_index(s, /*is_driver=*/false));
    }
    net_begin.push_back(static_cast<int>(net_pins.size()));
    net_weight.push_back(weight_halves(net));
  }
  const auto net_hpwl = [&](NetId n) {
    const auto i = static_cast<std::size_t>(n);
    const auto first = static_cast<std::size_t>(net_begin[i]);
    const auto count = static_cast<std::size_t>(net_begin[i + 1]) - first;
    return net_weight[i] * bbox_span(count, [&](std::size_t k) {
             return tile[static_cast<std::size_t>(net_pins[first + k])];
           });
  };
  std::vector<int> net_cost(nets.size(), 0);
  for (std::size_t n = 0; n < nets.size(); ++n)
    if (net_begin[n] != net_begin[n + 1]) net_cost[n] = net_hpwl(static_cast<NetId>(n));

  // Nets touching each node, once per pin (sink-less nets cost nothing
  // and are left out): a net reaching a node through two pins, or
  // touching both nodes of a swap, is counted twice in a move's cost,
  // exactly as the annealing schedule was tuned against.
  std::vector<std::vector<NetId>> nets_of_node(n_nodes);
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    const Net& net = nets[ni];
    if (net.sinks.empty()) continue;
    if (net.driver.node != kInvalidId)
      nets_of_node[static_cast<std::size_t>(net.driver.node)].push_back(static_cast<NetId>(ni));
    for (const auto& s : net.sinks)
      if (s.node != kInvalidId)
        nets_of_node[static_cast<std::size_t>(s.node)].push_back(static_cast<NetId>(ni));
  }
  const auto nets_of = [&](NodeId node) -> const std::vector<NetId>& {
    return nets_of_node[static_cast<std::size_t>(node)];
  };

  // A swap's cost over its touched nets: "before" sums the cached costs,
  // "after" recomputes each distinct touched net once into fresh_cost[]
  // (fresh_mark stamps the nets of the current move).
  std::vector<int> fresh_cost(nets.size(), 0);
  std::vector<unsigned> fresh_mark(nets.size(), 0);
  std::vector<NetId> fresh_nets;
  unsigned move_stamp = 0;
  const auto cached_cost = [&](NodeId a, NodeId b) {
    int c = 0;
    for (const NetId n : nets_of(a)) c += net_cost[static_cast<std::size_t>(n)];
    if (b != kInvalidId)
      for (const NetId n : nets_of(b)) c += net_cost[static_cast<std::size_t>(n)];
    return c;
  };
  const auto moved_cost = [&](NodeId a, NodeId b) {
    ++move_stamp;
    fresh_nets.clear();
    int c = 0;
    const auto add = [&](NodeId node) {
      for (const NetId n : nets_of(node)) {
        const auto i = static_cast<std::size_t>(n);
        if (fresh_mark[i] != move_stamp) {
          fresh_mark[i] = move_stamp;
          fresh_cost[i] = net_hpwl(n);
          fresh_nets.push_back(n);
        }
        c += fresh_cost[i];
      }
    };
    add(a);
    if (b != kInvalidId) add(b);
    return c;
  };

  // One move: pick a node, pick a random site of its kind; swap/displace.
  struct MoveOutcome {
    bool applied = false;
    double delta = 0.0;
  };
  auto propose = [&](bool accept_all, double temp) -> MoveOutcome {
    KindPool& pool = pools[rng.next_below(pools.size())];
    const NodeId node = pool.nodes[rng.next_below(pool.nodes.size())];
    const int to_slot = static_cast<int>(rng.next_below(pool.occupant.size()));
    const int from_slot = slot_of[static_cast<std::size_t>(node)];
    if (to_slot == from_slot) return {};
    const NodeId other = pool.occupant[static_cast<std::size_t>(to_slot)];

    const int before = cached_cost(node, other);
    const TileCoord from_tile = pool.sites[static_cast<std::size_t>(from_slot)];
    const TileCoord to_tile = pool.sites[static_cast<std::size_t>(to_slot)];
    tile[static_cast<std::size_t>(node)] = to_tile;
    if (other != kInvalidId) tile[static_cast<std::size_t>(other)] = from_tile;
    const int after = moved_cost(node, other);
    const double delta = 0.5 * static_cast<double>(after - before);

    const bool accept =
        accept_all || delta <= 0.0 || rng.next_double() < std::exp(-delta / temp);
    if (accept) {
      pool.occupant[static_cast<std::size_t>(to_slot)] = node;
      pool.occupant[static_cast<std::size_t>(from_slot)] = other;
      slot_of[static_cast<std::size_t>(node)] = to_slot;
      if (other != kInvalidId) slot_of[static_cast<std::size_t>(other)] = from_slot;
      for (const NetId n : fresh_nets)
        net_cost[static_cast<std::size_t>(n)] = fresh_cost[static_cast<std::size_t>(n)];
      return {true, delta};
    }
    tile[static_cast<std::size_t>(node)] = from_tile;
    if (other != kInvalidId) tile[static_cast<std::size_t>(other)] = to_tile;
    return {};
  };

  // Probe phase to set the initial temperature from the move-delta scale.
  double abs_delta_sum = 0.0;
  const int probes = std::max<int>(32, static_cast<int>(nodes.size()));
  for (int i = 0; i < probes; ++i) abs_delta_sum += std::fabs(propose(true, 1.0).delta);
  double temp = params.initial_temp_factor * (abs_delta_sum / probes + 1e-6);

  const int moves_per_temp =
      std::max<int>(16, params.moves_per_node_per_temp * static_cast<int>(nodes.size()));
  while (temp > params.exit_temp) {
    for (int m = 0; m < moves_per_temp; ++m) {
      ++result.moves_attempted;
      if (propose(false, temp).applied) ++result.moves_accepted;
    }
    ++result.temperature_steps;
    temp *= params.cooling;
  }

  std::copy_n(tile.begin(), n_nodes, pl.node_tile.begin());
  result.placement = std::move(pl);
  result.final_wirelength = wirelength(netlist, result.placement);
  return result;
}

}  // namespace dsra::map
