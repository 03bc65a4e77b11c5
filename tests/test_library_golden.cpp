// Golden pins for the kernel-library compile: the exact bitstreams, frame
// images and unfit reasons of a {12x8, 8x4} library, and the annealer's
// result for every netlist the library places. Any change to the placer,
// router or library construction that alters one accept/reject decision
// (and so one bitstream byte) fails here; a pure speed-up must not.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/report.hpp"
#include "dct/impl.hpp"
#include "mapper/place.hpp"
#include "me/systolic.hpp"
#include "runtime/fabric_pool.hpp"

namespace dsra::runtime {
namespace {

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_bytes(std::string& out, const std::vector<std::uint8_t>& bytes) {
  append_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes.begin(), bytes.end());
}

KernelLibrary golden_library() {
  KernelLibraryConfig config;
  config.geometries = {kDefaultGeometry, kSmallSccGeometry};
  return KernelLibrary(config);
}

/// Every fitting context's bitstream and frame image, in geometry then
/// context order, serialised with length prefixes.
std::string library_bytes(const KernelLibrary& lib) {
  std::string out;
  for (const ArrayGeometry& g : lib.geometries()) {
    out += to_string(g);
    for (const std::string& name : lib.context_names()) {
      if (!lib.fits(name, g)) continue;
      out += name;
      append_bytes(out, lib.bitstream(name, g));
      const ConfigFrameImage& image = lib.frame_image(name, g);
      append_u32(out, static_cast<std::uint32_t>(image.width));
      append_u32(out, static_cast<std::uint32_t>(image.height));
      append_u32(out, static_cast<std::uint32_t>(image.frames.size()));
      for (const ConfigFrame& f : image.frames) {
        append_u32(out, static_cast<std::uint32_t>(f.x));
        append_u32(out, static_cast<std::uint32_t>(f.y));
        append_bytes(out, f.payload);
      }
    }
  }
  return out;
}

/// The pairwise delta table of every geometry, in (base, target) order.
std::string delta_bytes(const KernelLibrary& lib) {
  std::string out;
  for (const ArrayGeometry& g : lib.geometries()) {
    for (const std::string& base : lib.context_names()) {
      for (const std::string& target : lib.context_names()) {
        const ConfigDelta* delta = lib.delta(g, base, target);
        if (delta == nullptr) continue;
        out += base + ">" + target;
        append_u32(out, static_cast<std::uint32_t>(delta->rewrites.size()));
        for (const ConfigFrame& f : delta->rewrites) {
          append_u32(out, static_cast<std::uint32_t>(f.x));
          append_u32(out, static_cast<std::uint32_t>(f.y));
          append_bytes(out, f.payload);
        }
        append_u32(out, static_cast<std::uint32_t>(delta->clears.size()));
        for (const ConfigDelta::Clear& c : delta->clears) {
          append_u32(out, static_cast<std::uint32_t>(c.x));
          append_u32(out, static_cast<std::uint32_t>(c.y));
        }
        append_u32(out, static_cast<std::uint32_t>(lib.delta_cost(g, base, target)->delta_bits));
      }
    }
  }
  return out;
}

TEST(LibraryGolden, BitstreamsFrameImagesAndDeltasAreByteIdentical) {
  const KernelLibrary lib = golden_library();
  EXPECT_EQ(fnv1a_hex(library_bytes(lib)), "38ac6f2558d00d84");
  EXPECT_EQ(fnv1a_hex(delta_bytes(lib)), "68e949558819d72e");
}

TEST(LibraryGolden, UnfitReasonsArePinned) {
  const KernelLibrary lib = golden_library();
  for (const std::string& name : lib.context_names())
    EXPECT_TRUE(lib.fits(name, kDefaultGeometry)) << name;
  std::vector<std::string> unfit;
  for (const std::string& name : lib.context_names())
    if (!lib.fits(name, kSmallSccGeometry))
      unfit.push_back(name + ": " + lib.unfit_reason(name, kSmallSccGeometry));
  EXPECT_EQ(unfit,
            (std::vector<std::string>{
                "cordic1: architecture 'da_array_8x4' provides 24 AddShift sites but "
                "netlist 'dct_cordic1' needs 36",
                "cordic2: architecture 'da_array_8x4' provides 24 AddShift sites but "
                "netlist 'dct_cordic2' needs 32",
                "me_systolic: flow: routing failed to converge on 'me_systolic_2x4' "
                "(overused channels: 18); increase channel tracks or array size"}));
}

/// map::place outcome of one library netlist on one geometry; a negative
/// moves_accepted marks a site shortage (place throws).
struct PlacePin {
  std::string netlist;
  ArrayGeometry geometry;
  double final_wirelength;
  long long moves_accepted;
};

TEST(LibraryGolden, AnnealerResultsArePinnedAtLibrarySeeds) {
  const std::vector<PlacePin> pins = {
      {"dct_da_basic", kDefaultGeometry, 128.0, 9966},
      {"dct_mixed_rom", kDefaultGeometry, 206.0, 13413},
      {"dct_cordic1", kDefaultGeometry, 295.0, 22261},
      {"dct_cordic2", kDefaultGeometry, 337.5, 16940},
      {"dct_scc_even_odd", kDefaultGeometry, 201.0, 14327},
      {"dct_scc_full", kDefaultGeometry, 128.0, 9966},
      {"me_systolic_2x4", kDefaultGeometry, 451.0, 11741},
      {"dct_da_basic", kSmallSccGeometry, 125.5, 12619},
      {"dct_mixed_rom", kSmallSccGeometry, 185.0, 14388},
      {"dct_cordic1", kSmallSccGeometry, 0.0, -1},
      {"dct_cordic2", kSmallSccGeometry, 0.0, -1},
      {"dct_scc_even_odd", kSmallSccGeometry, 181.0, 14495},
      {"dct_scc_full", kSmallSccGeometry, 125.5, 12619},
      {"me_systolic_2x4", kSmallSccGeometry, 371.0, 10771},
  };

  std::vector<Netlist> netlists;
  for (const auto& impl : dct::all_implementations()) netlists.push_back(impl->build_netlist());
  me::SystolicParams me_params;
  me_params.block = 4;
  me_params.modules = 2;
  netlists.push_back(me::build_systolic_netlist(me_params));

  std::size_t i = 0;
  for (const ArrayGeometry& g : {kDefaultGeometry, kSmallSccGeometry}) {
    for (const Netlist& netlist : netlists) {
      ASSERT_LT(i, pins.size());
      const PlacePin& pin = pins[i++];
      ASSERT_EQ(netlist.name(), pin.netlist);
      ASSERT_EQ(g, pin.geometry);
      const bool is_me = &netlist == &netlists.back();
      const ArrayArch arch =
          is_me ? ArrayArch::motion_estimation(g.width / 2, g.height / 2, ChannelSpec{6, 12})
                : ArrayArch::distributed_arithmetic(g.width, g.height);
      map::PlaceParams params;
      params.seed = is_me ? 11 : 17;
      if (pin.moves_accepted < 0) {
        EXPECT_THROW((void)map::place(netlist, arch, params), std::runtime_error)
            << pin.netlist << " @ " << to_string(g);
        continue;
      }
      const map::PlaceResult r = map::place(netlist, arch, params);
      EXPECT_EQ(r.final_wirelength, pin.final_wirelength) << pin.netlist << " @ " << to_string(g);
      EXPECT_EQ(r.moves_accepted, pin.moves_accepted) << pin.netlist << " @ " << to_string(g);
    }
  }
  EXPECT_EQ(i, pins.size());
}

}  // namespace
}  // namespace dsra::runtime
