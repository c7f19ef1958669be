/// \file smoke.cpp
/// \brief Fast end-to-end smoke run: execute the cheap registry
///        scenarios through one SimEngine and print every result.
///        Covers the RF campaign + link budget, the VNA impulse
///        responses, the 1-bit PHY curves (sequence and symbolwise
///        Monte-Carlo builds through the cache), the ISI filter
///        designs, the ADC energy model, the NoC queueing model +
///        flit-level DES cross-check, the hybrid system, BEC density
///        evolution and the coding planner, in a couple of seconds.
///        Not covered here (see tests/benches): LDPC BER simulation
///        (fig10_ldpc_latency, ~22 s on 4 cores) and live ISI filter
///        optimisation. Non-zero exit on any failed scenario.

#include <cstdio>
#include <iostream>

#include "wi/sim/sim.hpp"

int main() {
  using namespace wi::sim;
  const auto& registry = ScenarioRegistry::paper();
  SimEngine engine;
  const std::vector<ScenarioSpec> specs = {
      registry.get("table1_link_budget"),
      registry.get("fig01_pathloss"),
      registry.get("fig04_tx_power"),
      registry.get("quickstart_link_rate"),
      registry.get("board_links_plan"),
      registry.get("fig08a_mesh2d_8x8"),
      registry.get("fig08a_star_mesh_4x4c4"),
      registry.get("fig08a_mesh3d_4x4x4"),
      registry.get("ablation_vertical_links"),
      registry.get("ablation_hybrid_system"),
      registry.get("fig10_coding_plan"),
      registry.get("fig02_impulse_50mm"),
      registry.get("fig03_impulse_150mm"),
      registry.get("fig05_isi_filters"),
      registry.get("fig06_info_rates"),
      registry.get("ablation_adc_energy"),
      registry.get("ablation_threshold_saturation"),
  };
  const auto results = engine.run_all(specs);
  int failures = 0;
  for (const auto& result : results) {
    print_result(std::cout, result);
    std::cout << "\n";
    if (!result.ok()) ++failures;
  }
  std::printf("phy curve cache: %zu hits / %zu misses\n",
              engine.phy_cache().hits(), engine.phy_cache().misses());
  std::printf("%zu scenarios, %d failed\n", results.size(), failures);
  return failures == 0 ? 0 : 1;
}
