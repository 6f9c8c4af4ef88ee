// lgg_prof tests (DESIGN.md §17): profile counters must equal the
// KernelReport the caller sees, obey the documented invariants
// (coalesced + uncoalesced == transactions, ideal + replays ==
// transactions, camping conflicts match the partition model), survive
// the drivers' sampled-rescale transformation, and every export must be
// byte-identical across host execution policies.  The diff engine is
// the CI gate: exact equality passes, tampering fails, tolerances and
// ignore patterns behave per the prom_diff contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lgg.hpp"

namespace lgg {
namespace {

graph::Graph test_graph() {
  return graph::layered_random(300, 40, 0.15, 0.08, 11);
}

/// Everything the profiler can export, captured from one traced run.
struct ProfRun {
  core::GpuTriangleResult result;
  std::vector<prof::KernelProfile> profiles;
  std::string profile;
  std::string tree;
  std::string flame;
  std::string trace;
  std::vector<std::string> tracks;
};

ProfRun run_gpu(const graph::Graph& g, gpusim::ExecPolicy exec,
                core::GpuLayout layout = core::GpuLayout::kCoalescedAntiCamping,
                std::uint64_t max_tests = 0) {
  obs::Session sess;
  prof::Profiler profiler(&sess);
  core::GpuTriangleOptions opts;
  opts.layout = layout;
  opts.exec = exec;
  opts.obs = &sess;
  opts.prof = &profiler;
  opts.max_simulated_tests = max_tests;
  ProfRun r;
  r.result = core::count_triangles_gpu(g, opts);
  r.profiles = profiler.profiles();
  r.profile = profiler.profile_text();
  r.tree = profiler.profile_tree_text();
  r.flame = prof::flamegraph_text(sess.tracer);
  r.tracks = profiler.counter_track_events();
  r.trace = obs::chrome_trace_json(sess.tracer, r.tracks);
  return r;
}

/// The launch-level fields a profile copies from its KernelReport.
void expect_profile_matches(const prof::KernelProfile& p,
                            const gpusim::KernelReport& k) {
  EXPECT_EQ(p.global_slots, k.global_slots) << p.name;
  EXPECT_EQ(p.transactions, k.transactions) << p.name;
  EXPECT_EQ(p.bytes, k.bytes) << p.name;
  EXPECT_EQ(p.shared_slots, k.shared_slots) << p.name;
  EXPECT_EQ(p.bank_conflict_steps, k.bank_conflict_steps) << p.name;
  EXPECT_DOUBLE_EQ(p.warp_instructions, k.warp_instructions) << p.name;
  EXPECT_DOUBLE_EQ(p.camping_factor, k.camping_factor) << p.name;
  EXPECT_DOUBLE_EQ(p.kernel_time_s, k.kernel_time_s) << p.name;
}

TEST(ProfCounters, MatchKernelReportAndInvariants) {
  const graph::Graph g = test_graph();
  const ProfRun r = run_gpu(g, gpusim::ExecPolicy::serial());
  ASSERT_EQ(r.profiles.size(), 1u);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::KernelReport& k = r.result.kernel;

  // The profile IS the caller-visible report, field for field.
  expect_profile_matches(p, k);

  // Documented LaunchCounters invariants.
  EXPECT_EQ(p.coalesced_slots + p.uncoalesced_slots, p.global_slots);
  EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
            p.transactions);
  EXPECT_EQ(p.ideal_transactions + p.memory_replays, p.transactions);
  EXPECT_LE(p.ideal_transactions, p.transactions);
  EXPECT_EQ(p.shared_accesses + p.shared_replays, p.bank_conflict_steps);

  // Per-SM rows re-sum to the launch totals.
  std::uint64_t slots = 0, txns = 0, warps = 0;
  for (const gpusim::SmCounters& c : p.sms) {
    slots += c.global_slots;
    txns += c.transactions;
    warps += c.warps;
  }
  EXPECT_EQ(slots, p.global_slots);
  EXPECT_EQ(txns, p.transactions);
  EXPECT_EQ(warps, p.warps);
}

TEST(ProfCounters, CampingMatchesPartitionModel) {
  // The naive layout is the Figs. 6/7 camping workload: the profile's
  // conflict accounting must re-derive from the report's histogram.
  const graph::Graph g = test_graph();
  const ProfRun r = run_gpu(g, gpusim::ExecPolicy::serial(),
                            core::GpuLayout::kNaive);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::PartitionHistogram& h = r.result.kernel.partition_histogram;
  EXPECT_EQ(p.partition_pressure, h.count);
  EXPECT_EQ(p.partition_total, h.total);
  EXPECT_EQ(p.partition_serialized_steps, h.serialized_steps());
  EXPECT_EQ(p.partition_ideal_steps, h.ideal_steps());
  EXPECT_DOUBLE_EQ(p.camping_factor, h.camping_factor());
  EXPECT_EQ(p.camping_conflict_steps(),
            h.serialized_steps() -
                std::min(h.ideal_steps(), h.serialized_steps()));
  EXPECT_GT(p.transactions, 0u);
}

TEST(ProfCounters, RescaledProfileTracksSampledReport) {
  // A truncating test budget rescales the KernelReport; rescale_last
  // must keep the recorded profile identical to the final report.
  const graph::Graph g = test_graph();
  const ProfRun r =
      run_gpu(g, gpusim::ExecPolicy::serial(),
              core::GpuLayout::kCoalescedAntiCamping, 1000);
  ASSERT_FALSE(r.result.exact);
  const prof::KernelProfile& p = r.profiles.front();
  const gpusim::KernelReport& k = r.result.kernel;
  EXPECT_EQ(p.transactions, k.transactions);
  EXPECT_EQ(p.bytes, k.bytes);
  EXPECT_EQ(p.bank_conflict_steps, k.bank_conflict_steps);
  EXPECT_DOUBLE_EQ(p.camping_factor, k.camping_factor);
  EXPECT_DOUBLE_EQ(p.kernel_time_s, k.kernel_time_s);
  EXPECT_DOUBLE_EQ(p.sample_fraction, k.sample_fraction);
  EXPECT_LT(p.sample_fraction, 1.0);
  // Invariants survive the rescale.
  EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
            p.transactions);
  EXPECT_EQ(p.ideal_transactions + p.memory_replays, p.transactions);
  EXPECT_EQ(p.shared_accesses + p.shared_replays, p.bank_conflict_steps);
}

TEST(ProfDeterminism, ExportsByteIdenticalAcrossPolicies) {
  const graph::Graph g = test_graph();
  const ProfRun serial = run_gpu(g, gpusim::ExecPolicy::serial());
  for (const std::size_t threads : {1u, 8u}) {
    const ProfRun par = run_gpu(g, gpusim::ExecPolicy::parallel(threads));
    EXPECT_EQ(serial.profile, par.profile) << "threads=" << threads;
    EXPECT_EQ(serial.tree, par.tree) << "threads=" << threads;
    EXPECT_EQ(serial.flame, par.flame) << "threads=" << threads;
    EXPECT_EQ(serial.tracks, par.tracks) << "threads=" << threads;
    EXPECT_EQ(serial.trace, par.trace) << "threads=" << threads;
  }
}

TEST(ProfDeterminism, ResilientRunAttributesChunks) {
  // Multi-chunk pipeline: one profile per chunk launch, each attributed
  // to its chunk's span path, byte-identical across policies.
  const graph::Graph g = test_graph();
  const auto run = [&](gpusim::ExecPolicy exec) {
    obs::Session sess;
    prof::Profiler profiler(&sess);
    resilience::RunnerOptions opts;
    opts.exec = exec;
    opts.obs = &sess;
    opts.prof = &profiler;
    const resilience::RunnerReport rep = resilience::run_resilient(g, opts);
    EXPECT_TRUE(rep.exact);
    return std::pair<std::string, std::size_t>(profiler.profile_text(),
                                               profiler.profiles().size());
  };
  const auto serial = run(gpusim::ExecPolicy::serial());
  const auto par = run(gpusim::ExecPolicy::parallel(8));
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(serial.first, par.first);
  EXPECT_NE(serial.first.find("stack="), std::string::npos);
  EXPECT_NE(serial.first.find("chunk["), std::string::npos);
}

// BFS, intersection and k-clique launches reach the profiler through the
// shared run context with no per-kernel code: their counters match the
// caller-visible reports, the profile is policy-independent, and it is
// pinned by a golden file.
TEST(ProfGolden, BfsIntersectKcliqueOnSingleTriangle) {
  const std::string repo = LGG_REPO_DIR;
  const graph::Graph g =
      graph::read_snap_edge_list_file(repo + "/tests/corpus/single-triangle.txt")
          .graph;
  const auto run = [&](gpusim::ExecPolicy exec) {
    obs::Session sess;
    prof::Profiler profiler(&sess);
    core::RunContext ctx;
    ctx.exec = exec;
    ctx.obs = &sess;
    ctx.prof = &profiler;

    core::GpuBfsOptions bfs_opts;
    static_cast<core::RunContext&>(bfs_opts) = ctx;
    const core::GpuBfsResult bfs = core::bfs_gpu(g, 0, bfs_opts);
    // BFS exposes per-level reports only as sums: one profile per level,
    // and the profiles add up to the result's totals.
    std::size_t launches = profiler.profiles().size();
    EXPECT_EQ(launches, bfs.iterations);
    std::uint64_t transactions = 0, bytes = 0;
    double kernel_time_s = 0.0;
    for (const prof::KernelProfile& p : profiler.profiles()) {
      transactions += p.transactions;
      bytes += p.bytes;
      kernel_time_s += p.kernel_time_s;
    }
    EXPECT_EQ(transactions, bfs.transactions);
    EXPECT_EQ(bytes, bfs.bytes);
    EXPECT_DOUBLE_EQ(kernel_time_s, bfs.kernel_time_s);

    core::GpuIntersectOptions intersect_opts;
    static_cast<core::RunContext&>(intersect_opts) = ctx;
    const core::GpuIntersectResult intersect =
        core::count_triangles_gpu_intersect(g, intersect_opts);
    EXPECT_EQ(intersect.triangles, 1u);
    EXPECT_EQ(profiler.profiles().size(), ++launches);
    expect_profile_matches(profiler.profiles().back(), intersect.kernel);

    core::GpuKCountOptions kcount_opts;
    static_cast<core::RunContext&>(kcount_opts) = ctx;
    const core::GpuKCountResult cliques =
        core::count_kcliques_gpu(g, 3, kcount_opts);
    EXPECT_EQ(cliques.count, 1u);
    EXPECT_EQ(profiler.profiles().size(), ++launches);
    expect_profile_matches(profiler.profiles().back(), cliques.kernel);
    return profiler.profile_text();
  };
  const std::string serial = run(gpusim::ExecPolicy::serial());
  EXPECT_EQ(serial, run(gpusim::ExecPolicy::parallel(8)));

  const std::string golden_path =
      repo + "/ci/golden/single-triangle.kernels.prof";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (golden.str() != serial) {
    // Left in the test's working directory (the build tree) for review.
    const std::filesystem::path fresh =
        std::filesystem::absolute("single-triangle.kernels.prof");
    std::ofstream(fresh, std::ios::binary) << serial;
    ADD_FAILURE() << "profile differs from " << golden_path
                  << "; the fresh profile is in " << fresh.string()
                  << " (copy it over the golden if the change is intended)";
  }
}

TEST(ProfCounters, SampledIntersectAndKcliqueProfilesTrackReports) {
  // Every driver that changes a launch's report after the launch
  // (sampling rescale, the listing's append charge) hands the final
  // report to rescale_last, so the profile keeps matching what the
  // caller sees.
  const graph::Graph g = test_graph();
  prof::Profiler profiler;

  core::GpuIntersectOptions intersect_opts;
  intersect_opts.prof = &profiler;
  intersect_opts.max_simulated_edges = 200;
  const auto intersect = core::count_triangles_gpu_intersect(g, intersect_opts);
  ASSERT_FALSE(intersect.exact);
  expect_profile_matches(profiler.profiles().back(), intersect.kernel);
  EXPECT_DOUBLE_EQ(profiler.profiles().back().sample_fraction,
                   intersect.kernel.sample_fraction);

  core::GpuKCountOptions kcount_opts;
  kcount_opts.prof = &profiler;
  kcount_opts.max_simulated_tests = 1000;
  const auto cliques = core::count_kcliques_gpu(g, 3, kcount_opts);
  ASSERT_FALSE(cliques.exact);
  expect_profile_matches(profiler.profiles().back(), cliques.kernel);
  EXPECT_DOUBLE_EQ(profiler.profiles().back().sample_fraction,
                   cliques.kernel.sample_fraction);

  // The listing charges its appends after the launch; the profile must
  // carry them, sampled or not, and keep its invariants.
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1000}}) {
    kcount_opts.max_simulated_tests = budget;
    const auto listing = core::list_triangles_gpu(g, kcount_opts);
    ASSERT_GT(listing.output_bytes, 0u);
    ASSERT_EQ(listing.exact, budget == 0);
    const prof::KernelProfile& p = profiler.profiles().back();
    expect_profile_matches(p, listing.kernel);
    EXPECT_DOUBLE_EQ(p.sample_fraction, listing.kernel.sample_fraction);
    EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
              p.transactions);
    EXPECT_EQ(p.ideal_transactions + p.memory_replays, p.transactions);
  }

  // A truncated hybrid chunk is rescaled to its full test count.
  core::HybridOptions hybrid_opts;
  hybrid_opts.prof = &profiler;
  hybrid_opts.max_simulated_tests_per_chunk = 500;
  const core::AlsPrecomputed plan = core::precompute_als(g, hybrid_opts);
  const gpusim::Simulator sim(hybrid_opts.device_spec());
  gpusim::DeviceMemory mem(hybrid_opts.device_spec());
  std::size_t truncated = 0;
  for (std::size_t ci = 0; ci < plan.works.size(); ++ci) {
    if (plan.works[ci].tests == 0) continue;
    const core::ChunkLaunch chunk = core::run_chunk_kernel(
        g, plan.chunking.chunks[ci], plan.works[ci], sim, mem, hybrid_opts);
    if (chunk.simulated == plan.works[ci].tests) continue;
    ++truncated;
    const prof::KernelProfile& p = profiler.profiles().back();
    expect_profile_matches(p, chunk.report);
    EXPECT_DOUBLE_EQ(p.sample_fraction, chunk.report.sample_fraction);
    EXPECT_LT(p.sample_fraction, 1.0);
    EXPECT_EQ(p.coalesced_transactions + p.uncoalesced_transactions,
              p.transactions);
    EXPECT_EQ(p.shared_accesses + p.shared_replays, p.bank_conflict_steps);
  }
  EXPECT_GT(truncated, 0u);
}

TEST(ProfExports, MetricsAggregateAndTracksRender) {
  const graph::Graph g = test_graph();
  obs::Session sess;
  prof::Profiler profiler(&sess);
  core::GpuTriangleOptions opts;
  opts.layout = core::GpuLayout::kNaive;
  opts.obs = &sess;
  opts.prof = &profiler;
  const auto result = core::count_triangles_gpu(g, opts);
  profiler.export_metrics(sess.metrics);
  EXPECT_EQ(sess.metrics.counter_value("lgg_prof_launches_total"), 1u);
  EXPECT_EQ(sess.metrics.counter_value("lgg_prof_coalesced_transactions_total") +
                sess.metrics.counter_value(
                    "lgg_prof_uncoalesced_transactions_total"),
            result.kernel.transactions);
  // Counter-track events are valid one-line JSON objects on the modelled
  // timeline and splice into a loadable Chrome trace.
  const std::vector<std::string> tracks = profiler.counter_track_events();
  ASSERT_FALSE(tracks.empty());
  for (const std::string& ev : tracks) {
    EXPECT_EQ(ev.front(), '{');
    EXPECT_EQ(ev.back(), '}');
    EXPECT_NE(ev.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(ev.find("lgg_prof/"), std::string::npos);
  }
  const std::string trace = obs::chrome_trace_json(sess.tracer, tracks);
  EXPECT_NE(trace.find("lgg_prof/transactions"), std::string::npos);
  EXPECT_NE(trace.find("\"camping_factor\""), std::string::npos);
}

TEST(ProfFlamegraph, SelfTimeExcludesChildren) {
  obs::Tracer t;
  const std::size_t root = t.begin("root", "test");
  t.charge_ns(100);
  const std::size_t c1 = t.begin("child", "test");
  t.charge_ns(40);
  t.end(c1);
  const std::size_t c2 = t.begin("child", "test");  // same stack: aggregates
  t.charge_ns(10);
  t.end(c2);
  t.charge_ns(50);
  t.end(root);
  const std::string flame = prof::flamegraph_text(t);
  EXPECT_EQ(flame, "root 150\nroot;child 50\n");
}

TEST(ProfDiff, ExactAndToleranced) {
  const std::string a =
      "# comment\n"
      "lgg_prof_launches 2\n"
      "lgg_prof_transactions{kernel=\"k\",launch=\"0\"} 1000\n"
      "lgg_prof_kernel_time_s{kernel=\"k\",launch=\"0\"} 0.5\n";
  // Identical text: clean diff.
  EXPECT_TRUE(prof::diff_profile_text(a, a).equal);

  // A 0.5% drift fails exact comparison but passes rtol 1%.
  std::string b = a;
  b.replace(b.find("1000"), 4, "1005");
  EXPECT_FALSE(prof::diff_profile_text(a, b).equal);
  prof::DiffOptions tol;
  tol.rtol = 0.01;
  EXPECT_TRUE(prof::diff_profile_text(a, b, tol).equal);

  // Ignore patterns drop series wholesale.
  prof::DiffOptions ign;
  ign.ignore = {"transactions"};
  EXPECT_TRUE(prof::diff_profile_text(a, b, ign).equal);
  // Patterns are POSIX extended regexes, as in ci/prom_diff.
  ign.ignore = {"^lgg_prof_(bytes|transactions)\\{"};
  EXPECT_TRUE(prof::diff_profile_text(a, b, ign).equal);
  ign.ignore = {"^transactions"};
  EXPECT_FALSE(prof::diff_profile_text(a, b, ign).equal);
  ign.ignore = {"(unclosed"};
  EXPECT_THROW((void)prof::diff_profile_text(a, b, ign), lgg::Error);

  // A key present on only one side always differs, whatever the rtol.
  const std::string c = a + "lgg_prof_extra 1\n";
  prof::DiffOptions loose;
  loose.rtol = 100.0;
  const prof::DiffResult r = prof::diff_profile_text(a, c, loose);
  EXPECT_FALSE(r.equal);
  ASSERT_EQ(r.diffs.size(), 1u);
  EXPECT_NE(r.diffs[0].find("only in B"), std::string::npos);
}

TEST(ProfDiff, ReportsValueMismatchDeterministically) {
  const std::string a = "x 1\ny 2\nz 3\n";
  const std::string b = "x 1\ny 5\nz 9\n";
  const prof::DiffResult r = prof::diff_profile_text(a, b);
  ASSERT_EQ(r.diffs.size(), 2u);
  EXPECT_NE(r.diffs[0].find("y"), std::string::npos);
  EXPECT_NE(r.diffs[1].find("z"), std::string::npos);
}

TEST(ProfObs, SpanCapDropsAreObservable) {
  obs::Tracer t;
  t.set_span_cap(1);
  const std::size_t kept = t.begin("kept", "test");
  t.charge_ns(10);
  const std::size_t lost = t.begin("dropped", "test");
  t.end(lost);
  t.end(kept);
  EXPECT_EQ(t.dropped(), 1u);
  // The flamegraph still renders from what was recorded.
  EXPECT_NE(prof::flamegraph_text(t).find("kept"), std::string::npos);
}

}  // namespace
}  // namespace lgg
