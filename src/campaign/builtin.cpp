#include "campaign/builtin.hpp"

namespace blackdp::campaign {

namespace {

// Fig. 4: detection accuracy / FP / FN vs. attacker cluster, single and
// cooperative black holes, 150 repetitions per treatment (paper §IV-B).
constexpr std::string_view kFig4Json = R"json({
  "name": "fig4",
  "experiment": "detection",
  "seed": 20170605,
  "trials": 150,
  "axes": [
    {"key": "attack", "values": ["single", "cooperative"]},
    {"key": "attacker_cluster", "values": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]}
  ]
})json";

// Fig. 5: detection packets per scripted placement (paper §IV-C). One rep
// per placement; these bundles are the one list of the paper's ten
// placements (campaigns/fig5.json is its editable copy).
constexpr std::string_view kFig5Json = R"json({
  "name": "fig5",
  "experiment": "fig5",
  "seed": 11,
  "trials": 1,
  "axes": [
    {"key": "case", "values": [
      {"attack": "none", "suspect_in_reporter_cluster": true, "flees": false},
      {"attack": "none", "suspect_in_reporter_cluster": false, "flees": false},
      {"attack": "single", "suspect_in_reporter_cluster": true, "flees": false},
      {"attack": "single", "suspect_in_reporter_cluster": true, "flees": true},
      {"attack": "single", "suspect_in_reporter_cluster": false, "flees": false},
      {"attack": "single", "suspect_in_reporter_cluster": false, "flees": true},
      {"attack": "cooperative", "suspect_in_reporter_cluster": true, "flees": false},
      {"attack": "cooperative", "suspect_in_reporter_cluster": true, "flees": true},
      {"attack": "cooperative", "suspect_in_reporter_cluster": false, "flees": false},
      {"attack": "cooperative", "suspect_in_reporter_cluster": false, "flees": true}
    ]}
  ]
})json";

// Sensitivity: detection robustness across vehicle density x DSRC range, a
// single black hole in cluster 2 with evasion disabled. Cluster length is
// swept together with range to keep the paper's geometric invariant (every
// RSU covers its segment).
constexpr std::string_view kSensitivityJson = R"json({
  "name": "sensitivity",
  "experiment": "detection",
  "seed": 31000,
  "trials": 40,
  "base": {"attacker_cluster": 2, "first_evasive_cluster": 99},
  "axes": [
    {"key": "vehicle_count", "values": [40, 70, 100, 150]},
    {"key": "radio", "values": [
      {"transmission_range_m": 600, "cluster_length_m": 600},
      {"transmission_range_m": 800, "cluster_length_m": 800},
      {"transmission_range_m": 1000, "cluster_length_m": 1000}
    ]}
  ]
})json";

// Adversarial-robustness grid: naive/selective attacker x naive/hardened
// detector, with and without accusation flooders riding along. Evasion is
// disabled so every miss is the selective attacker's probe-cache filtering,
// not a renewal/act-legit draw. The v2 knobs (detector_hardened,
// accusation_flooders, attack=selective) hash only when non-default, so the
// naive/naive corner reproduces the classic treatment hashes and seeds.
constexpr std::string_view kAdversarialJson = R"json({
  "name": "adversarial",
  "experiment": "detection",
  "seed": 47000,
  "trials": 30,
  "base": {"attacker_cluster": 2, "first_evasive_cluster": 99,
           "verify_rounds": 2},
  "axes": [
    {"key": "attack", "values": ["single", "selective"]},
    {"key": "detector_hardened", "values": [false, true]},
    {"key": "accusation_flooders", "values": [0, 2]}
  ]
})json";

// CI smoke: 2 treatments x 2 reps of a small dense fleet — exercises the
// full engine (expansion, manifest, resume, bench JSON) in seconds.
constexpr std::string_view kSmokeJson = R"json({
  "name": "smoke",
  "experiment": "detection",
  "seed": 7,
  "trials": 2,
  "base": {"vehicle_count": 60, "first_evasive_cluster": 99},
  "axes": [
    {"key": "attacker_cluster", "values": [2, 3]}
  ]
})json";

}  // namespace

const std::vector<BuiltinSpec>& builtinSpecs() {
  static const std::vector<BuiltinSpec> specs{
      {"fig4", "Fig. 4 grid: attack type x attacker cluster, 150 reps",
       kFig4Json},
      {"fig5", "Fig. 5 scripted placements: detection packet counts",
       kFig5Json},
      {"sensitivity", "density x radio-range robustness sweep", kSensitivityJson},
      {"adversarial",
       "attacker sophistication x detector hardening x accusation flooding",
       kAdversarialJson},
      {"smoke", "tiny 4-trial CI smoke campaign", kSmokeJson},
  };
  return specs;
}

const BuiltinSpec* findBuiltinSpec(std::string_view name) {
  for (const BuiltinSpec& spec : builtinSpecs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace blackdp::campaign
