// arena_test.cpp — the attack↔defense arena: grid expansion, the defense
// pass on sweep rows, detection-aware attackers, and the arena job's
// determinism contract (reduced rows AND frontier byte-identical for any
// shard split or thread count).
#include <gtest/gtest.h>

#include <filesystem>

#include "backend/compute_backend.h"
#include "defense/defenses.h"
#include "dist/job_dir.h"
#include "dist/jobs.h"
#include "dist/reducer.h"
#include "engine/arena.h"
#include "engine/attackers.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "eval/attack_bench.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "scratch_dir.h"
#include "test_util.h"

namespace fsa::engine {
namespace {

// ---- fixture: a ZooModel around the fast blob substrate ----------------------

struct Fixture {
  models::ZooModel model;
  std::string cache_dir;

  Fixture() {
    cache_dir = testutil::scratch_path("fsa_arena_test");
    model.name = "blobs";
    model.net = testutil::make_blob_net(6);
    model.train = testutil::make_blobs(600, 21);
    model.test = testutil::make_blobs(300, 22);
    model.attack_pool = testutil::make_blobs(400, 23);
    model.test_accuracy = testutil::train_blob_net(model.net, model.train, model.test);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// A tight deployment: per-16-param groups, zero slack. Vanilla fsa-l2
/// spreads δ over every parameter, so some entry exceeds its group's
/// trained max; the evasive variant box-projects INSIDE the solve and
/// stays under it by construction.
defense::DefenseConfig strict_range() { return defense::parse_defense("range/16/0"); }

// ---- arena_specs -------------------------------------------------------------

TEST(ArenaSpecs, ExpandsTheFullCrossWithDefenseTags) {
  ArenaConfig cfg;
  cfg.methods = {"fsa-l0", "fsa-l2"};
  cfg.defenses = {defense::parse_defense("checksum/64"), strict_range()};
  cfg.layer_sets = {{"fc2"}};
  cfg.sr_pairs = {{1, 8}, {2, 12}};
  cfg.seeds = {3, 4};
  const std::vector<SweepSpec> specs = arena_specs(cfg);
  ASSERT_EQ(specs.size(), 2u * 2u * 1u * 2u * 2u);
  // method → defense → layers → (S,R) → seed, each row tagged by its
  // defense's canonical key (the tag is part of the reducer's sort key).
  EXPECT_EQ(specs[0].method, "fsa-l0");
  EXPECT_EQ(specs[0].tag, "checksum/64");
  ASSERT_TRUE(specs[0].defense.has_value());
  EXPECT_EQ(specs[0].defense->key(), "checksum/64");
  EXPECT_EQ(specs[0].S, 1);
  EXPECT_EQ(specs[1].seed, 4u);
  EXPECT_EQ(specs[4].tag, "range/16/0");
  EXPECT_EQ(specs[8].method, "fsa-l2");
  EXPECT_FALSE(specs[0].measure_accuracy);  // rates, not accuracy, by default
}

TEST(ArenaSpecs, ValidatesEagerly) {
  ArenaConfig cfg;
  cfg.defenses = {strict_range()};
  cfg.methods = {"no-such-method"};
  EXPECT_THROW((void)arena_specs(cfg), std::invalid_argument);
  cfg.methods = {"fsa-l0"};
  cfg.defenses.clear();
  EXPECT_THROW((void)arena_specs(cfg), std::invalid_argument);
  cfg.defenses = {defense::DefenseConfig{}};
  cfg.defenses[0].name = "no-such-defense";
  EXPECT_THROW((void)arena_specs(cfg), std::invalid_argument);
  cfg.defenses = {strict_range()};
  cfg.seeds.clear();
  EXPECT_THROW((void)arena_specs(cfg), std::invalid_argument);
}

TEST(ArenaJobs, ManifestRequiresADefenseOnEverySpec) {
  Sweep sweep;
  sweep.methods({"fsa-l0"}).layers({"fc2"}).sr_pairs({{1, 8}}).seeds({3});
  EXPECT_THROW((void)dist::arena_manifest("blobs", "blocked", sweep.build()),
               std::invalid_argument);
  sweep.with_defense(strict_range());
  const eval::Json manifest = dist::arena_manifest("blobs", "blocked", sweep.build());
  EXPECT_EQ(manifest.get_string("kind", ""), "arena");
  EXPECT_EQ(manifest.get_int("shards", 0), 1);
}

// ---- registry: evasive attackers ---------------------------------------------

TEST(EvasiveRegistry, VariantsRegisteredAndRetargetable) {
  EXPECT_TRUE(has_attacker("fsa-l2-evasive"));
  EXPECT_TRUE(has_attacker("fsa-l0-evasive"));
  const AttackerPtr base = make_attacker("fsa-l2-evasive");
  EXPECT_EQ(base->name(), "fsa-l2-evasive");
  const auto* ev = dynamic_cast<const EvasiveFsaAttacker*>(base.get());
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->target().name, "range");

  // make_attacker_for retargets an evasive method at the row's deployed
  // defense; non-evasive methods pass through unchanged.
  const AttackerPtr retargeted = make_attacker_for("fsa-l2-evasive", strict_range());
  const auto* rt = dynamic_cast<const EvasiveFsaAttacker*>(retargeted.get());
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->target().key(), "range/16/0");
  EXPECT_EQ(make_attacker_for("fsa-l0", strict_range())->name(), "fsa-l0");
  // Unknown defenses fail at construction, before any solve.
  defense::DefenseConfig bogus;
  bogus.name = "no-such-defense";
  EXPECT_THROW((void)make_attacker_for("fsa-l2-evasive", bogus), std::invalid_argument);
}

TEST(EvasiveAttacker, NoTargetIsBitwiseIdenticalToVanilla) {
  auto& f = fixture();
  eval::AttackBench bench(f.model, f.cache_dir, {"fc2"});
  const core::AttackSpec spec = bench.spec(1, 10, 3);

  core::FaultSneakingConfig cfg;
  cfg.admm.norm = core::NormKind::kL2;
  FsaAttacker vanilla(cfg, "fsa-l2");
  EvasiveFsaAttacker unconstrained(cfg, defense::DefenseConfig{.name = ""}, "fsa-l2-evasive");

  const AttackReport a = vanilla.run(f.model.net, bench.attack().mask(), spec);
  const AttackReport b = unconstrained.run(f.model.net, bench.attack().mask(), spec);
  EXPECT_EQ(a.delta, b.delta);  // bitwise: no active constraint, no drift
  EXPECT_EQ(a.l0, b.l0);
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.targets_hit, b.targets_hit);
}

// ---- the defense pass on sweep rows ------------------------------------------

TEST(DefensePass, EvasiveBeatsVanillaUnderStrictRangeGuardAtEqualBudget) {
  auto& f = fixture();
  ArenaConfig cfg;
  cfg.methods = {"fsa-l2", "fsa-l2-evasive"};
  cfg.defenses = {strict_range()};
  cfg.layer_sets = {{"fc2"}};
  cfg.sr_pairs = {{1, 12}};
  cfg.seeds = {3};
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult result = runner.run(arena_specs(cfg));
  ASSERT_EQ(result.rows.size(), 2u);

  const AttackReport& vanilla = result.rows[0].report;
  const AttackReport& evasive = result.rows[1].report;
  ASSERT_TRUE(vanilla.defense.has_value());
  ASSERT_TRUE(evasive.defense.has_value());
  EXPECT_EQ(vanilla.defense->defense, "range/16/0");

  // The paper's qualitative result, closed-loop: the unconstrained ℓ2
  // attack leaves the trained envelope and is caught; the detection-aware
  // variant folds the envelope into the prox step, lands every fault, and
  // slips under the same guard — strictly higher evasion at equal budget.
  EXPECT_TRUE(vanilla.defense->detected);
  EXPECT_FALSE(evasive.defense->detected);
  EXPECT_TRUE(evasive.all_targets_hit);
  EXPECT_TRUE(evasive.defense->evaded);
  EXPECT_FALSE(vanilla.defense->evaded);
  EXPECT_EQ(evasive.defense->sanitize_clamped, 0);  // nothing to clamp: in-range
  EXPECT_EQ(evasive.defense->faults_after_sanitize, evasive.S);
}

TEST(DefensePass, ChecksumDetectsEverythingButBudgetShrinksFootprint) {
  auto& f = fixture();
  ArenaConfig cfg;
  cfg.methods = {"fsa-l2", "fsa-l0-evasive"};
  cfg.defenses = {defense::parse_defense("checksum/16")};
  cfg.layer_sets = {{"fc2"}};
  cfg.sr_pairs = {{1, 12}};
  cfg.seeds = {3};
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult result = runner.run(arena_specs(cfg));
  ASSERT_EQ(result.rows.size(), 2u);

  const AttackReport& spread = result.rows[0].report;
  const AttackReport& budgeted = result.rows[1].report;
  // A CRC sees ANY stored change — both rows are detected; what the
  // flip-budget buys is locality: δ confined to ≤ 2 integrity blocks.
  ASSERT_TRUE(spread.defense.has_value());
  ASSERT_TRUE(budgeted.defense.has_value());
  EXPECT_TRUE(spread.defense->detected);
  EXPECT_TRUE(budgeted.defense->detected);
  EXPECT_LE(budgeted.defense->regions_flagged, 2);
  EXPECT_GT(spread.defense->regions_flagged, 2);
  EXPECT_LE(budgeted.l0, 2 * 16);
}

TEST(DefensePass, OutcomeSurvivesTheJsonRoundTrip) {
  AttackReport r;
  r.method = "fsa-l2-evasive";
  DefenseOutcome d;
  d.defense = "range/16/0";
  d.detected_pre = false;
  d.detected_post = true;
  d.detected = true;
  d.evaded = false;
  d.regions_flagged = 3;
  d.sanitize_clamped = 7;
  d.faults_after_sanitize = 1;
  d.overhead_bytes = 168;
  d.verify_cost = 330;
  r.defense = d;

  const AttackReport back = AttackReport::from_json(eval::Json::parse(r.to_json().dump(2)));
  ASSERT_TRUE(back.defense.has_value());
  EXPECT_EQ(back.defense->defense, d.defense);
  EXPECT_EQ(back.defense->detected_pre, d.detected_pre);
  EXPECT_EQ(back.defense->detected_post, d.detected_post);
  EXPECT_EQ(back.defense->detected, d.detected);
  EXPECT_EQ(back.defense->evaded, d.evaded);
  EXPECT_EQ(back.defense->regions_flagged, d.regions_flagged);
  EXPECT_EQ(back.defense->sanitize_clamped, d.sanitize_clamped);
  EXPECT_EQ(back.defense->faults_after_sanitize, d.faults_after_sanitize);
  EXPECT_EQ(back.defense->overhead_bytes, d.overhead_bytes);
  EXPECT_EQ(back.defense->verify_cost, d.verify_cost);

  AttackReport plain;  // no defense pass → no "defense" key → stays unset
  EXPECT_FALSE(plain.to_json().has("defense"));
  EXPECT_FALSE(AttackReport::from_json(plain.to_json()).defense.has_value());
}

// ---- the frontier -------------------------------------------------------------

TEST(ArenaFrontier, AggregatesPerMethodDefenseCell) {
  eval::Json rows = eval::Json::array();
  const auto row = [](const char* method, const char* defense, bool detected, bool evaded,
                      std::int64_t l0, double l2) {
    eval::Json r = eval::Json::object();
    r.set("method", eval::Json::string(method));
    r.set("l0", eval::Json::number(l0));
    r.set("l2", eval::Json::number(l2));
    eval::Json d = eval::Json::object();
    d.set("defense", eval::Json::string(defense));
    d.set("detected", eval::Json::boolean(detected));
    d.set("evaded", eval::Json::boolean(evaded));
    d.set("overhead_bytes", eval::Json::number(std::int64_t{64}));
    d.set("verify_cost", eval::Json::number(std::int64_t{330}));
    r.set("defense", std::move(d));
    return r;
  };
  rows.push_back(row("fsa-l2", "range/16/0", true, false, 100, 0.8));
  rows.push_back(row("fsa-l2", "range/16/0", false, true, 50, 0.4));
  rows.push_back(row("fsa-l2-evasive", "range/16/0", false, true, 60, 0.5));
  rows.push_back(eval::Json::object());  // defenseless row: skipped, not fatal

  const eval::Json frontier = arena_frontier(rows);
  ASSERT_EQ(frontier.size(), 2u);
  const eval::Json& a = frontier.at(0);
  EXPECT_EQ(a.get_string("method", ""), "fsa-l2");
  EXPECT_EQ(a.get_int("rows", 0), 2);
  EXPECT_EQ(a.get_int("detected", 0), 1);
  EXPECT_DOUBLE_EQ(a.get_number("detect_rate", -1.0), 0.5);
  EXPECT_DOUBLE_EQ(a.get_number("evasion_rate", -1.0), 0.5);
  EXPECT_DOUBLE_EQ(a.get_number("mean_l0", -1.0), 75.0);
  const eval::Json& b = frontier.at(1);
  EXPECT_EQ(b.get_string("method", ""), "fsa-l2-evasive");
  EXPECT_DOUBLE_EQ(b.get_number("evasion_rate", -1.0), 1.0);
  EXPECT_EQ(b.get_int("overhead_bytes", 0), 64);
}

// ---- the arena job: worker-count and thread-count invariance ------------------

std::vector<SweepSpec> arena_grid() {
  ArenaConfig cfg;
  cfg.methods = {"fsa-l2", "fsa-l2-evasive"};
  cfg.defenses = {defense::parse_defense("checksum/16"), strict_range()};
  cfg.layer_sets = {{"fc2"}};
  cfg.sr_pairs = {{1, 8}};
  cfg.seeds = {3};
  return arena_specs(cfg);
}

TEST(ArenaJob, ShardedReduceByteIdenticalToSingleShardIncludingFrontier) {
  auto& f = fixture();
  const testutil::Scratch scratch_dir("fsa_arena_job");
  const std::string scratch = scratch_dir.dir.string();
  const std::vector<SweepSpec> specs = arena_grid();
  const eval::Json manifest = dist::arena_manifest("blobs", backend::active_name(), specs);
  ASSERT_EQ(manifest.get_int("shards", 0), static_cast<std::int64_t>(specs.size()));

  // One worker entry per shard (fresh runner each, as separate processes
  // would have) vs one worker entry solving a single-shard manifest.
  const dist::JobDir sharded =
      dist::JobDir::create(scratch + "/sharded", "arena",
                           static_cast<int>(specs.size()), manifest);
  for (int s = 0; s < sharded.shards(); ++s) {
    SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
    sharded.write_result(s, dist::run_sweep_shard(manifest, s, runner));
  }

  eval::Json one = manifest;
  one.set("shards", eval::Json::number(std::int64_t{1}));
  const dist::JobDir single = dist::JobDir::create(scratch + "/single", "arena", 1, one);
  {
    SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
    single.write_result(0, dist::run_sweep_shard(one, 0, runner));
  }

  const eval::Json sharded_reduced = dist::reduce_job(sharded);
  const eval::Json single_reduced = dist::reduce_job(single);
  EXPECT_EQ(sharded_reduced.get_string("kind", ""), "arena");
  ASSERT_EQ(sharded_reduced.at("rows").size(), specs.size());
  // `shards` is the one field that legitimately differs; rows and the
  // frontier must match byte for byte.
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(sharded_reduced.at("rows").at(i).dump(2), single_reduced.at("rows").at(i).dump(2))
        << "row " << i;
  EXPECT_EQ(sharded_reduced.at("frontier").dump(2), single_reduced.at("frontier").dump(2));
  // Every row carries a defense outcome and the frontier covers every cell.
  for (const eval::Json& row : sharded_reduced.at("rows").items())
    EXPECT_TRUE(row.has("defense")) << row.dump();
  EXPECT_EQ(sharded_reduced.at("frontier").size(), 4u);
}

TEST(ArenaJob, ReducedRowsByteIdenticalForOneAndFourThreads) {
  auto& f = fixture();
  const std::vector<SweepSpec> specs = arena_grid();
  const eval::Json manifest = dist::arena_manifest("blobs", backend::active_name(), specs);
  eval::Json one = manifest;
  one.set("shards", eval::Json::number(std::int64_t{1}));

  const auto reduce_with = [&](int threads) {
    set_num_threads(threads);
    SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
    const eval::Json shard = dist::run_sweep_shard(one, 0, runner);
    return dist::make_reducer("arena")->reduce(one, {shard});
  };
  const eval::Json serial = reduce_with(1);
  const eval::Json parallel = reduce_with(4);
  set_num_threads(0);  // restore the environment default
  EXPECT_EQ(serial.dump(2), parallel.dump(2));
}

}  // namespace
}  // namespace fsa::engine
