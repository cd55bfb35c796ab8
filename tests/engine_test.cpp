// engine_test.cpp — the unified attack engine: registry, report JSON,
// attacker adapters, network cloning, and the SweepRunner determinism
// contract (bitwise-identical rows for 1 and N workers).
#include <gtest/gtest.h>

#include <filesystem>

#include "backend/compute_backend.h"
#include "models/feature_cache.h"
#include "engine/attackers.h"
#include "engine/registry.h"
#include "engine/sweep.h"
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
    cache_dir = testutil::scratch_path("fsa_engine_test");
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

core::AttackSpec blob_spec(eval::AttackBench& bench, std::int64_t s, std::int64_t r,
                           std::uint64_t seed) {
  return bench.spec(s, r, seed);
}

// ---- registry -----------------------------------------------------------------

TEST(Registry, BuiltinsAreRegistered) {
  const auto names = attacker_names();
  for (const char* expected : {"fsa-l0", "fsa-l2", "fsa-l1", "gda", "sba"})
    EXPECT_TRUE(has_attacker(expected)) << expected;
  EXPECT_GE(names.size(), 5u);
  EXPECT_EQ(make_attacker("fsa-l0")->name(), "fsa-l0");
  EXPECT_EQ(make_attacker("gda")->name(), "gda");
}

TEST(Registry, UnknownNameThrowsListingKnown) {
  try {
    make_attacker("does-not-exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    EXPECT_NE(msg.find("fsa-l0"), std::string::npos);  // lists known methods
  }
}

TEST(Registry, CustomRegistrationWins) {
  register_attacker("custom-test", [] {
    core::FaultSneakingConfig cfg;
    return std::make_unique<FsaAttacker>(cfg, "custom-test");
  });
  EXPECT_TRUE(has_attacker("custom-test"));
  EXPECT_EQ(make_attacker("custom-test")->name(), "custom-test");
}

// ---- AttackReport JSON ---------------------------------------------------------

TEST(AttackReport, JsonRoundTrip) {
  AttackReport r;
  r.method = "fsa-l0";
  r.backend = "packed";
  r.surface = "fc2[weights+biases] (330 params)";
  r.S = 3;
  r.R = 50;
  r.seed = 9007199254740993ULL;  // > 2^53: must not squeeze through a double
  r.l0 = 17;
  r.l2 = 1.2345678901234567;
  r.targets_hit = 2;
  r.maintained = 47;
  r.success_rate = 2.0 / 3.0;
  r.all_targets_hit = false;
  r.all_maintained = true;
  r.attempts = 2;
  r.iterations = 601;
  r.seconds = 0.125;
  r.test_accuracy = 0.9875;
  r.clean_accuracy = 0.995;

  const std::string text = r.to_json().dump(2);
  const AttackReport back = AttackReport::from_json(eval::Json::parse(text));
  EXPECT_EQ(back.method, r.method);
  EXPECT_EQ(back.backend, r.backend);
  EXPECT_EQ(back.surface, r.surface);
  EXPECT_EQ(back.S, r.S);
  EXPECT_EQ(back.R, r.R);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.l0, r.l0);
  EXPECT_EQ(back.l2, r.l2);  // %.17g round-trips doubles exactly
  EXPECT_EQ(back.targets_hit, r.targets_hit);
  EXPECT_EQ(back.maintained, r.maintained);
  EXPECT_EQ(back.success_rate, r.success_rate);
  EXPECT_EQ(back.all_targets_hit, r.all_targets_hit);
  EXPECT_EQ(back.all_maintained, r.all_maintained);
  EXPECT_EQ(back.attempts, r.attempts);
  EXPECT_EQ(back.iterations, r.iterations);
  EXPECT_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.test_accuracy, r.test_accuracy);
  EXPECT_EQ(back.clean_accuracy, r.clean_accuracy);
}

TEST(AttackReport, UnmeasuredAccuracySerializesAsNull) {
  AttackReport r;  // test_accuracy defaults to -1 (not measured)
  const eval::Json j = r.to_json();
  EXPECT_TRUE(j.at("test_accuracy").is_null());
  EXPECT_DOUBLE_EQ(AttackReport::from_json(j).test_accuracy, -1.0);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(eval::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("1.2.3"), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("1-2"), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("\"\\uzzzz\""), std::runtime_error);
  EXPECT_THROW(eval::Json::parse("\"\\u00g1\""), std::runtime_error);
}

TEST(Json, EscapesRoundTrip) {
  eval::Json j = eval::Json::object();
  j.set("s", eval::Json::string("a\"b\\c\nd\te"));
  const eval::Json back = eval::Json::parse(j.dump());
  EXPECT_EQ(back.at("s").as_string(), "a\"b\\c\nd\te");
}

// ---- network cloning ------------------------------------------------------------

TEST(Clone, IsDeepAndEquivalent) {
  auto& f = fixture();
  nn::Sequential clone = f.model.net.clone();
  ASSERT_EQ(clone.size(), f.model.net.size());

  // Same forward behaviour...
  const Tensor x = f.model.test.images().slice0(0, 8);
  const Tensor y0 = f.model.net.forward(x);
  const Tensor y1 = clone.forward(x);
  EXPECT_EQ(y0, y1);

  // ...but fully independent storage: perturbing the clone leaves the
  // original untouched.
  const core::ParamMask clone_mask = core::ParamMask::make(clone, {"fc2"});
  Tensor theta = clone_mask.gather_values();
  const Tensor original = core::ParamMask::make(f.model.net, {"fc2"}).gather_values();
  theta *= 2.0f;
  clone_mask.scatter_values(theta);
  EXPECT_EQ(core::ParamMask::make(f.model.net, {"fc2"}).gather_values(), original);
  EXPECT_NE(clone_mask.gather_values(), original);
}

// ---- attacker adapters ----------------------------------------------------------

TEST(Attackers, FsaAdapterMatchesDirectRunAndRestoresNet) {
  auto& f = fixture();
  eval::AttackBench bench(f.model, fixture().cache_dir, {"fc2"});
  const core::AttackSpec spec = blob_spec(bench, 1, 10, 31);
  const Tensor before = bench.attack().mask().gather_values();

  core::FaultSneakingConfig cfg;
  const FsaAttacker adapter(cfg);
  const AttackReport rep = adapter.run(f.model.net, bench.attack().mask(), spec);
  EXPECT_EQ(bench.attack().mask().gather_values(), before);  // net restored

  core::FaultSneakingAttack direct(f.model.net, {"fc2"});
  const core::FaultSneakingResult res = direct.run(spec, cfg);
  EXPECT_EQ(rep.delta, res.delta);  // adapter is a faithful wrapper
  EXPECT_EQ(rep.l0, res.l0);
  EXPECT_EQ(rep.targets_hit, res.targets_hit);
  EXPECT_EQ(rep.maintained, res.maintained);
  EXPECT_EQ(rep.S, spec.S);
  EXPECT_EQ(rep.R, spec.R());
}

TEST(Attackers, SbaAdapterFlipsOneBias) {
  auto& f = fixture();
  eval::AttackBench bench(f.model, fixture().cache_dir, {"fc2"});
  const core::AttackSpec spec = blob_spec(bench, 1, 10, 32);
  const Tensor before = bench.attack().mask().gather_values();

  const SbaAttacker sba;
  const AttackReport rep = sba.run(f.model.net, bench.attack().mask(), spec);
  EXPECT_EQ(bench.attack().mask().gather_values(), before);
  EXPECT_LE(rep.l0, 1);  // one bias (0 if the target already led)
  EXPECT_TRUE(rep.all_targets_hit);
  EXPECT_EQ(rep.method, "sba");
}

TEST(Attackers, SbaRequiresBiasesInSurface) {
  auto& f = fixture();
  eval::AttackBench bench(f.model, fixture().cache_dir, {"fc2"}, /*weights=*/true,
                          /*biases=*/false);
  const core::AttackSpec spec = blob_spec(bench, 1, 5, 33);
  const SbaAttacker sba;
  EXPECT_THROW((void)sba.run(f.model.net, bench.attack().mask(), spec), std::invalid_argument);
}

TEST(Attackers, GdaAdapterReportsWholeSpec) {
  auto& f = fixture();
  eval::AttackBench bench(f.model, fixture().cache_dir, {"fc2"});
  const core::AttackSpec spec = blob_spec(bench, 1, 12, 34);
  const Tensor before = bench.attack().mask().gather_values();

  const GdaAttacker gda;
  const AttackReport rep = gda.run(f.model.net, bench.attack().mask(), spec);
  EXPECT_EQ(bench.attack().mask().gather_values(), before);
  EXPECT_EQ(rep.R, 12);  // maintained rows measured even though GDA ignores them
  EXPECT_GE(rep.maintained, 0);
  EXPECT_EQ(rep.l0, ops::l0_norm(rep.delta));
}

// ---- Sweep builder ---------------------------------------------------------------

TEST(SweepBuilder, CartesianProductAndSeedFn) {
  Sweep sweep;
  sweep.methods({"fsa-l0", "gda"})
      .layer_sets({{"fc1"}, {"fc2"}})
      .sr_pairs({{1, 10}, {2, 20}, {3, 30}})
      .seed_fn([](std::int64_t s, std::int64_t r) { return static_cast<std::uint64_t>(100 * s + r); });
  const auto specs = sweep.build();
  ASSERT_EQ(specs.size(), 2u * 2u * 3u);
  EXPECT_EQ(specs[0].method, "fsa-l0");
  EXPECT_EQ(specs[0].seed, 110u);  // 100·1 + 10
  EXPECT_EQ(specs.back().method, "gda");
  EXPECT_EQ(specs.back().seed, 330u);

  // seed_fn REPLACES the seeds list — no duplicate instances per cell.
  sweep.seeds({1, 2, 3});
  sweep.seed_fn([](std::int64_t s, std::int64_t r) { return static_cast<std::uint64_t>(s + r); });
  EXPECT_EQ(sweep.build().size(), 2u * 2u * 3u);
}

TEST(SweepBuilder, RModesAndExplicitSpecs) {
  Sweep equal;
  equal.s_values({1, 4}).r_equals_s();
  const auto eq_specs = equal.build();
  ASSERT_EQ(eq_specs.size(), 2u);
  EXPECT_EQ(eq_specs[1].S, 4);
  EXPECT_EQ(eq_specs[1].R, 4);

  Sweep offset;
  offset.s_values({2}).r_offset(100);
  EXPECT_EQ(offset.build()[0].R, 102);

  Sweep only_explicit;
  SweepSpec spec;
  spec.tag = "point";
  // Per-instance OPTIONS (accuracy/policy/attacker) must not conjure a
  // phantom default cartesian cell next to explicitly added specs.
  only_explicit.measure_accuracy(false);
  only_explicit.add(spec);
  const auto ex = only_explicit.build();
  ASSERT_EQ(ex.size(), 1u);  // no cartesian expansion when only add() was used
  EXPECT_EQ(ex[0].tag, "point");
}

// ---- SweepRunner ------------------------------------------------------------------

Sweep small_sweep() {
  Sweep sweep;
  sweep.methods({"fsa-l0", "gda", "sba"}).layers({"fc2"}).sr_pairs({{1, 8}, {2, 12}}).seeds({3});
  return sweep;
}

TEST(SweepRunner, RowsMatchRequestOrderAndLookupWorks) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult result = runner.run(small_sweep());
  ASSERT_EQ(result.rows.size(), 6u);
  EXPECT_EQ(result.rows[0].report.method, "fsa-l0");
  EXPECT_EQ(result.rows[0].spec.S, 1);
  EXPECT_EQ(result.rows[5].report.method, "sba");
  EXPECT_EQ(result.rows[5].spec.R, 12);
  EXPECT_EQ(&result.row("gda", 2, 12), &result.rows[3]);
  EXPECT_THROW(result.row("fsa-l0", 99, 99), std::out_of_range);
  EXPECT_THROW(result.row_tagged("missing"), std::out_of_range);
  for (const auto& row : result.rows) {
    EXPECT_GE(row.report.test_accuracy, 0.0);  // measured by default
    EXPECT_EQ(row.report.l0, ops::l0_norm(row.report.delta));
  }
}

TEST(SweepRunner, BitwiseIdenticalRowsForOneAndManyWorkers) {
  auto& f = fixture();
  set_num_threads(1);
  SweepRunner serial_runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult serial = serial_runner.run(small_sweep());

  set_num_threads(4);
  SweepRunner parallel_runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult parallel = parallel_runner.run(small_sweep());
  set_num_threads(0);  // restore the environment default

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const AttackReport& a = serial.rows[i].report;
    const AttackReport& b = parallel.rows[i].report;
    EXPECT_EQ(a.method, b.method) << "row " << i;
    EXPECT_EQ(a.delta, b.delta) << "row " << i;  // bitwise: Tensor== compares floats exactly
    EXPECT_EQ(a.l0, b.l0) << "row " << i;
    EXPECT_EQ(a.l2, b.l2) << "row " << i;
    EXPECT_EQ(a.targets_hit, b.targets_hit) << "row " << i;
    EXPECT_EQ(a.maintained, b.maintained) << "row " << i;
    EXPECT_EQ(a.test_accuracy, b.test_accuracy) << "row " << i;
    EXPECT_EQ(a.attempts, b.attempts) << "row " << i;
  }
}

TEST(SweepRunner, IdenticalRowsAcrossAllComputeBackendsAndThreadCounts) {
  // The acceptance contract of the backend seam: reference, blocked and
  // packed must produce identical attack-success rows — same δ (bitwise),
  // same hits/kept counts, same accuracy — in the determinism sweep, for
  // any FSA_NUM_THREADS. The kernels are built to be
  // accumulation-order-identical, so this holds exactly, not just within
  // tolerance.
  auto& f = fixture();
  // RAII restore: a failing ASSERT mid-loop must not leak a non-default
  // backend/thread count into the rest of the suite.
  struct Restore {
    std::string saved = backend::active_name();
    ~Restore() {
      backend::set_backend(saved);
      set_num_threads(0);
    }
  } restore;
  backend::set_backend("reference");
  set_num_threads(1);
  SweepRunner oracle_runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult oracle = oracle_runner.run(small_sweep());
  EXPECT_EQ(oracle.backend, "reference");

  for (const char* name : {"reference", "blocked", "packed"}) {
    for (int threads : {1, 4}) {
      backend::set_backend(name);
      set_num_threads(threads);
      SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
      const SweepResult result = runner.run(small_sweep());
      EXPECT_EQ(result.backend, name);
      ASSERT_EQ(result.rows.size(), oracle.rows.size());
      for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const AttackReport& a = oracle.rows[i].report;
        const AttackReport& b = result.rows[i].report;
        const std::string where =
            std::string(name) + " @ " + std::to_string(threads) + " threads, row " +
            std::to_string(i);
        EXPECT_EQ(b.backend, name) << where;
        EXPECT_EQ(a.method, b.method) << where;
        EXPECT_EQ(a.delta, b.delta) << where;  // bitwise
        EXPECT_EQ(a.l0, b.l0) << where;
        EXPECT_EQ(a.l2, b.l2) << where;
        EXPECT_EQ(a.targets_hit, b.targets_hit) << where;
        EXPECT_EQ(a.maintained, b.maintained) << where;
        EXPECT_EQ(a.all_targets_hit, b.all_targets_hit) << where;
        EXPECT_EQ(a.all_maintained, b.all_maintained) << where;
        EXPECT_EQ(a.test_accuracy, b.test_accuracy) << where;
      }
    }
  }
}

TEST(SweepRunner, JsonReportCarriesAllRows) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  Sweep sweep;
  sweep.layers({"fc2"}).sr_pairs({{1, 6}}).seeds({5}).measure_accuracy(false);
  const SweepResult result = runner.run(sweep);
  const eval::Json j = eval::Json::parse(result.to_json().dump(2));
  EXPECT_EQ(j.get_string("model", ""), "blobs");
  EXPECT_EQ(j.get_string("backend", ""), backend::active_name());
  ASSERT_EQ(j.at("rows").size(), 1u);
  const AttackReport back = AttackReport::from_json(j.at("rows").at(0));
  EXPECT_EQ(back.method, "fsa-l0");
  // Per-row attribution: the active backend's name, refined by dispatching
  // backends ("auto" rows record e.g. "auto(blocked)").
  EXPECT_EQ(back.backend.rfind(backend::active_name(), 0), 0u) << back.backend;
  EXPECT_EQ(back.l0, result.rows[0].report.l0);
  EXPECT_EQ(back.seed, 5u);
}

// ---- the compiled plan against the Sequential oracle ---------------------------

/// (backend, threads): every sweep row, which SweepRunner produces through
/// the compiled plan (shared prefix, fused head), is re-solved here on a
/// full Sequential::clone() with δ applied and scored by
/// models::head_accuracy. δ bytes and test accuracy must be equal.
class SweepOracle : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  void TearDown() override {
    backend::set_backend(saved_);
    set_num_threads(0);
  }

 private:
  std::string saved_ = backend::active_name();
};

TEST_P(SweepOracle, RowsMatchFullCloneResolve) {
  const auto& [backend_name, threads] = GetParam();
  backend::set_backend(backend_name);
  set_num_threads(threads);
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  Sweep sweep;
  // fc2 shares the fused fc1+relu prefix; fc1 mutates that fused node.
  sweep.methods({"fsa-l0", "gda"}).layer_sets({{"fc2"}, {"fc1"}}).sr_pairs({{1, 8}}).seeds({3});
  const SweepResult result = runner.run(sweep);
  EXPECT_GT(result.fused_nodes, 0);  // blob net: fc1+relu, fc2
  ASSERT_EQ(result.rows.size(), 4u);

  for (const SweepRow& row : result.rows) {
    const SweepSpec& spec = row.spec;
    const std::string where = spec.method + " " + spec.surface_key();
    eval::AttackBench& bench = runner.bench(spec.layers, spec.weights, spec.biases);
    nn::Sequential net = f.model.net.clone();
    const core::ParamMask mask =
        core::ParamMask::make(net, spec.layers, spec.weights, spec.biases);
    const core::AttackSpec problem = bench.spec(spec.S, spec.R, spec.seed, spec.policy);
    const AttackReport rep = make_attacker(spec.method)->run(net, mask, problem);
    Tensor theta = mask.gather_values();
    theta += rep.delta;
    mask.scatter_values(theta);
    const double acc = models::head_accuracy(net, mask.cut(), bench.test_features(),
                                             f.model.test.labels());
    EXPECT_EQ(rep.delta, row.report.delta) << where;  // bitwise
    EXPECT_EQ(acc, row.report.test_accuracy) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, SweepOracle,
    ::testing::Combine(::testing::Values("reference", "blocked", "packed", "auto"),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param)) + "t";
    });

TEST(SweepRunner, EmptySweepThrows) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  EXPECT_THROW(runner.run(std::vector<SweepSpec>{}), std::invalid_argument);
}

TEST(SweepRunner, UnknownMethodThrowsBeforeSolving) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  SweepSpec spec;
  spec.method = "no-such-method";
  spec.layers = {"fc2"};
  spec.S = 1;
  spec.R = 4;
  EXPECT_THROW(runner.run({spec}), std::invalid_argument);
}

// ---- the campaign stage -------------------------------------------------------

Sweep campaign_sweep(int shards) {
  CampaignConfig cfg;
  cfg.injectors = {"rowhammer", "laser"};
  cfg.shards = shards;
  Sweep sweep;
  sweep.methods({"fsa-l0"})
      .layers({"fc2"})
      .sr_pairs({{1, 8}})
      .seeds({3})
      .measure_accuracy(false)
      .with_campaign(cfg);
  return sweep;
}

TEST(SweepCampaign, RowsCarryOneReportPerInjector) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult result = runner.run(campaign_sweep(2));
  ASSERT_EQ(result.rows.size(), 1u);
  const AttackReport& rep = result.rows[0].report;
  ASSERT_TRUE(rep.campaign.has_value());
  EXPECT_EQ(rep.campaign->shards, 2);
  EXPECT_EQ(rep.campaign->format, "float32");
  // float32 realization is lossless, but plan_bit_flips drops entries whose
  // modification is below float32 resolution at θ0.
  EXPECT_LE(rep.campaign->params_modified, rep.l0);
  EXPECT_GT(rep.campaign->params_modified, 0);
  ASSERT_EQ(rep.campaign->reports.size(), 2u);
  EXPECT_EQ(rep.campaign->reports[0].injector, "rowhammer");
  EXPECT_EQ(rep.campaign->reports[1].injector, "laser");
  EXPECT_EQ(rep.campaign->report("laser").bits_requested, rep.campaign->total_bit_flips);
  EXPECT_GT(rep.campaign->report("laser").seconds, 0.0);
  // Campaign columns show up in the table alongside the attack columns.
  const std::string csv = result.table("t").csv();
  EXPECT_NE(csv.find("rowhammer h"), std::string::npos);
  EXPECT_NE(csv.find("laser att/mass"), std::string::npos);
}

TEST(SweepCampaign, TotalsAreShardCountInvariant) {
  // The CLI acceptance contract: `sweep --with-campaign --shards 8` rows
  // are bitwise identical to `--shards 1` (modulo the shards field itself).
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult one = runner.run(campaign_sweep(1));
  const SweepResult eight = runner.run(campaign_sweep(8));
  ASSERT_EQ(one.rows.size(), eight.rows.size());
  for (std::size_t i = 0; i < one.rows.size(); ++i) {
    const CampaignSummary& a = *one.rows[i].report.campaign;
    const CampaignSummary& b = *eight.rows[i].report.campaign;
    EXPECT_EQ(a.total_bit_flips, b.total_bit_flips);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t c = 0; c < a.reports.size(); ++c) {
      EXPECT_EQ(a.reports[c].injector, b.reports[c].injector);
      EXPECT_EQ(a.reports[c].success, b.reports[c].success);
      EXPECT_EQ(a.reports[c].attempts, b.reports[c].attempts);
      EXPECT_EQ(a.reports[c].massages, b.reports[c].massages);
      EXPECT_EQ(a.reports[c].rows_touched, b.reports[c].rows_touched);
      EXPECT_EQ(a.reports[c].seconds, b.reports[c].seconds);  // bitwise
    }
  }
}

TEST(SweepCampaign, ReportJsonRoundTripsCampaign) {
  auto& f = fixture();
  SweepRunner runner(f.model, f.cache_dir, /*verbose=*/false);
  const SweepResult result = runner.run(campaign_sweep(4));
  const eval::Json j = eval::Json::parse(result.to_json().dump(2));
  const AttackReport back = AttackReport::from_json(j.at("rows").at(0));
  ASSERT_TRUE(back.campaign.has_value());
  const CampaignSummary& orig = *result.rows[0].report.campaign;
  EXPECT_EQ(back.campaign->shards, orig.shards);
  EXPECT_EQ(back.campaign->total_bit_flips, orig.total_bit_flips);
  ASSERT_EQ(back.campaign->reports.size(), orig.reports.size());
  for (std::size_t c = 0; c < orig.reports.size(); ++c) {
    EXPECT_EQ(back.campaign->reports[c].injector, orig.reports[c].injector);
    EXPECT_EQ(back.campaign->reports[c].attempts, orig.reports[c].attempts);
    EXPECT_EQ(back.campaign->reports[c].seconds, orig.reports[c].seconds);
  }
}

TEST(SweepCampaign, UnknownInjectorThrowsAtConfigTime) {
  CampaignConfig cfg;
  cfg.injectors = {"warp-core"};
  Sweep sweep;
  EXPECT_THROW(sweep.with_campaign(cfg), std::invalid_argument);
  CampaignConfig zero;
  zero.shards = 0;
  EXPECT_THROW(sweep.with_campaign(zero), std::invalid_argument);
}

}  // namespace
}  // namespace fsa::engine
