// MIN-with-counting recompute bookkeeping (§5.4): a monoid accumulator
// tracks how many live contributions equal the current extremum, so
// deleting one of several equal contributions decrements the support
// instead of forcing a recompute; only a support hitting zero marks the
// target for re-aggregation. These tests pin down the bookkeeping
// primitives (MarkRecompute / UnmarkRecompute / ClearRecomputeState and
// the support branch of ApplyEmissionValue) through a test peer, plus
// the end-to-end accounting: counting strictly reduces
// recomputed_vertices on equal-contribution deletions, support-to-zero
// still recomputes, and both modes produce bit-identical query answers
// that match a from-scratch run (verified by state digest).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algos/programs.h"
#include "common/metrics.h"
#include "compiler/compiled_program.h"
#include "engine/engine.h"
#include "storage/graph_store.h"

namespace itg {

/// Befriended by Engine: exposes the private monoid-recompute
/// bookkeeping (marks, pending sets, hidden support column, the
/// emission-apply entry point) to tests.
class EngineTestPeer {
 public:
  explicit EngineTestPeer(Engine* e) : e_(e) {}

  void Mark(int attr, VertexId v) { e_->MarkRecompute(attr, v); }
  void Unmark(int attr, VertexId v) { e_->UnmarkRecompute(attr, v); }
  void Clear() { e_->ClearRecomputeState(); }

  const std::vector<VertexId>& RecomputeSet(int attr) const {
    return e_->recompute_sets_[static_cast<size_t>(attr)];
  }
  bool Marked(int attr, VertexId v) const {
    const auto& marks = e_->monoid_marks_[static_cast<size_t>(attr)];
    return !marks.empty() && marks[static_cast<size_t>(v)] != 0;
  }
  double* Cell(int attr, VertexId v) { return e_->cur_cols_.Cell(attr, v); }
  double* SupportCell(int attr, VertexId v) {
    return e_->cur_cols_.Cell(e_->support_attr_[attr], v);
  }
  /// Drives one width-1 emission application (insert: mult=+1,
  /// delete: mult=-1) straight into the monoid/support branch.
  void Apply(const Emission& em, VertexId target, double value, double mult) {
    Engine::ApplyCounts counts = e_->NewApplyCounts();
    e_->ApplyEmissionValue(em, target, &value, mult, &counts);
    e_->FoldApplyCounts(counts);
  }

 private:
  Engine* e_;
};

namespace {

/// A compiled WCC pipeline over an explicit symmetric edge list.
struct Pipeline {
  std::unique_ptr<CompiledProgram> program;
  std::unique_ptr<DynamicGraphStore> store;
  std::unique_ptr<Engine> engine;
};

std::vector<Edge> Sym(const std::vector<Edge>& edges) {
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    out.push_back(e);
    out.push_back({e.dst, e.src});
  }
  return out;
}

Pipeline MakeWcc(const std::string& tag, VertexId n,
                 const std::vector<Edge>& edges, bool min_counting) {
  Pipeline p;
  auto compiled = CompileProgram(WccProgram());
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  p.program = std::move(compiled).value();
  auto store_or =
      DynamicGraphStore::Create(::testing::TempDir() + "/minc_" + tag, n,
                                Sym(edges), {}, &GlobalMetrics());
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  p.store = std::move(store_or).value();
  EngineOptions opts;
  opts.min_counting = min_counting;
  p.engine = std::make_unique<Engine>(p.store.get(), p.program.get(), opts);
  return p;
}

/// Applies one symmetric delta batch and runs the incremental step.
void StepWcc(Pipeline* p, Timestamp t, const std::vector<Edge>& inserts,
             const std::vector<Edge>& deletes) {
  std::vector<EdgeDelta> batch;
  for (const Edge& e : Sym(inserts)) batch.push_back({e, +1});
  for (const Edge& e : Sym(deletes)) batch.push_back({e, -1});
  auto ts = p->store->ApplyMutations(batch);
  ASSERT_TRUE(ts.ok()) << ts.status().ToString();
  ASSERT_EQ(*ts, t);
  Status st = p->engine->RunIncremental(t);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

std::vector<double> CompColumn(const Pipeline& p, VertexId n) {
  const int attr = p.engine->AttrIndex("comp");
  EXPECT_GE(attr, 0);
  std::vector<double> out;
  for (VertexId v = 0; v < n; ++v) out.push_back(p.engine->AttrValue(attr, v));
  return out;
}

/// The single WCC emission (v.min_comp.Accumulate(u.comp)).
const Emission& MinCompEmission(const Pipeline& p, int attr) {
  const auto& emissions = p.program->traverse.emissions;
  EXPECT_EQ(emissions.size(), 1u);
  const Emission& em = emissions[0];
  EXPECT_FALSE(em.is_global);
  EXPECT_EQ(em.target, attr);
  EXPECT_EQ(em.width, 1);
  return em;
}

TEST(MinCountingTest, MarkDedupesUnmarkClearsAndClearResets) {
  Pipeline p = MakeWcc("peer", 4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
                       /*min_counting=*/true);
  ASSERT_TRUE(p.engine->RunOneShot(0).ok());
  EngineTestPeer peer(p.engine.get());
  const int attr = p.engine->AttrIndex("min_comp");
  ASSERT_GE(attr, 0);

  // Double-mark dedupes via the marks bitmap: one pending entry.
  peer.Mark(attr, 3);
  peer.Mark(attr, 3);
  EXPECT_TRUE(peer.Marked(attr, 3));
  EXPECT_EQ(peer.RecomputeSet(attr).size(), 1u);
  EXPECT_EQ(peer.RecomputeSet(attr)[0], 3);

  // Unmark clears the flag but leaves the stale queue entry; the
  // recompute pass re-derives only still-marked vertices, so the stale
  // entry is skipped there.
  peer.Unmark(attr, 3);
  EXPECT_FALSE(peer.Marked(attr, 3));
  EXPECT_EQ(peer.RecomputeSet(attr).size(), 1u);

  // Re-marking after an unmark must queue the vertex again (the flag
  // was cleared, so the dedupe cannot suppress it).
  peer.Mark(attr, 3);
  EXPECT_TRUE(peer.Marked(attr, 3));
  EXPECT_EQ(peer.RecomputeSet(attr).size(), 2u);

  peer.Clear();
  EXPECT_FALSE(peer.Marked(attr, 3));
  EXPECT_TRUE(peer.RecomputeSet(attr).empty());
}

TEST(MinCountingTest, SupportBranchOfEmissionApply) {
  // Drive the monoid branch of ApplyEmissionValue directly: with
  // counting on, equal deletions decrement the support and only the
  // drop to zero marks; inserts rebuild the support and cancel a
  // pending mark; a worse-than-extremum deletion is a no-op.
  Pipeline p = MakeWcc("apply_on", 4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
                       /*min_counting=*/true);
  ASSERT_TRUE(p.engine->RunOneShot(0).ok());
  EngineTestPeer peer(p.engine.get());
  const int attr = p.engine->AttrIndex("min_comp");
  ASSERT_GE(attr, 0);
  const Emission& em = MinCompEmission(p, attr);

  // Seed vertex 3 with aggregate 0 held by two contributions.
  peer.Cell(attr, 3)[0] = 0.0;
  peer.SupportCell(attr, 3)[0] = 2.0;

  peer.Apply(em, 3, 0.0, -1);  // equal deletion: support 2 -> 1
  EXPECT_EQ(peer.SupportCell(attr, 3)[0], 1.0);
  EXPECT_FALSE(peer.Marked(attr, 3));

  peer.Apply(em, 3, 0.0, -1);  // support 1 -> 0: marked
  EXPECT_EQ(peer.SupportCell(attr, 3)[0], 0.0);
  EXPECT_TRUE(peer.Marked(attr, 3));

  peer.Apply(em, 3, 0.0, +1);  // equal insert: support back, unmarked
  EXPECT_EQ(peer.SupportCell(attr, 3)[0], 1.0);
  EXPECT_FALSE(peer.Marked(attr, 3));

  peer.Apply(em, 3, -2.0, +1);  // better insert: new extremum, support 1
  EXPECT_EQ(peer.Cell(attr, 3)[0], -2.0);
  EXPECT_EQ(peer.SupportCell(attr, 3)[0], 1.0);

  peer.Apply(em, 3, 5.0, -1);  // worse deletion: no effect
  EXPECT_EQ(peer.Cell(attr, 3)[0], -2.0);
  EXPECT_EQ(peer.SupportCell(attr, 3)[0], 1.0);
  EXPECT_FALSE(peer.Marked(attr, 3));
  peer.Clear();

  // With counting off, any equal deletion marks immediately even
  // though the support (if it were tracked) is still positive.
  Pipeline q = MakeWcc("apply_off", 4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
                       /*min_counting=*/false);
  ASSERT_TRUE(q.engine->RunOneShot(0).ok());
  EngineTestPeer qpeer(q.engine.get());
  const int qattr = q.engine->AttrIndex("min_comp");
  const Emission& qem = MinCompEmission(q, qattr);
  qpeer.Cell(qattr, 3)[0] = 0.0;
  qpeer.SupportCell(qattr, 3)[0] = 2.0;
  qpeer.Apply(qem, 3, 0.0, -1);
  EXPECT_TRUE(qpeer.Marked(qattr, 3));
  qpeer.Clear();
}

TEST(MinCountingTest, CountingReducesRecomputeOnEqualDeletion) {
  // Square 0-1, 0-2, 1-3, 2-3: comp converges to 0 everywhere and at
  // the superstep where vertex 3 aggregates, its MIN holds two equal
  // contributions (via 1 and 2). Deleting edge 1-3 retracts one of
  // them: with counting the support drops 2 -> 1 at that superstep and
  // vertex 3 is not recomputed; without counting every equal retraction
  // recomputes, so the counter is strictly higher. Both modes must
  // still match a from-scratch run on the post-deletion graph.
  const std::vector<Edge> base = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  uint64_t digests[2];
  std::vector<double> comps[2];
  uint64_t recomputed[2];
  for (int mode = 0; mode < 2; ++mode) {
    const bool counting = (mode == 0);
    Pipeline p = MakeWcc(counting ? "eq_on" : "eq_off", 4, base, counting);
    ASSERT_TRUE(p.engine->RunOneShot(0).ok());
    StepWcc(&p, 1, {}, {{1, 3}});
    recomputed[mode] = p.engine->last_stats().recomputed_vertices;
    digests[mode] = p.engine->last_stats().state_digest;
    comps[mode] = CompColumn(p, 4);
  }
  EXPECT_LT(recomputed[0], recomputed[1])
      << "counting did not reduce recomputed_vertices";

  // Both modes agree with each other and with a from-scratch run on the
  // post-deletion graph (the component stays connected, comp == 0).
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(comps[0], comps[1]);
  Pipeline fresh = MakeWcc("eq_fresh", 4, {{0, 1}, {0, 2}, {2, 3}}, true);
  ASSERT_TRUE(fresh.engine->RunOneShot(0).ok());
  EXPECT_EQ(fresh.engine->last_stats().state_digest, digests[0]);
  EXPECT_EQ(CompColumn(fresh, 4), comps[0]);
}

TEST(MinCountingTest, SupportDropToZeroForcesRecompute) {
  // Deleting vertex 3's last remaining contribution (2-3, after 1-3
  // already went) zeroes its support, so even with counting on the
  // engine must recompute — and the component split must be fully
  // reflected: comp(3) reverts to 3 and the state digest matches a
  // from-scratch run on the remaining edges.
  for (const bool counting : {true, false}) {
    Pipeline p = MakeWcc(counting ? "zero_on" : "zero_off", 4,
                         {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, counting);
    ASSERT_TRUE(p.engine->RunOneShot(0).ok());
    StepWcc(&p, 1, {}, {{1, 3}});
    StepWcc(&p, 2, {}, {{2, 3}});
    EXPECT_GT(p.engine->last_stats().recomputed_vertices, 0u)
        << "counting=" << counting;
    const int comp = p.engine->AttrIndex("comp");
    EXPECT_EQ(p.engine->AttrValue(comp, 3), 3.0) << "counting=" << counting;
    // After re-aggregation the pending sets and marks are drained.
    EngineTestPeer peer(p.engine.get());
    const int attr = p.engine->AttrIndex("min_comp");
    EXPECT_TRUE(peer.RecomputeSet(attr).empty());
    EXPECT_FALSE(peer.Marked(attr, 3));

    Pipeline fresh = MakeWcc(counting ? "zero_fresh_on" : "zero_fresh_off",
                             4, {{0, 1}, {0, 2}}, true);
    ASSERT_TRUE(fresh.engine->RunOneShot(0).ok());
    EXPECT_EQ(fresh.engine->last_stats().state_digest,
              p.engine->last_stats().state_digest);
    EXPECT_EQ(CompColumn(fresh, 4), CompColumn(p, 4));
  }
}

TEST(MinCountingTest, DeleteAndReinsertSameBatchMatchesFreshRun) {
  // One batch removes both of vertex 3's contributions but wires in a
  // new one (0-3) carrying the same extremum: whatever order the delta
  // scan applies them in, both counting modes must converge to the
  // identical state of a from-scratch run over the new topology.
  uint64_t digests[2];
  std::vector<double> comps[2];
  for (int mode = 0; mode < 2; ++mode) {
    const bool counting = (mode == 0);
    Pipeline p = MakeWcc(counting ? "re_on" : "re_off", 4,
                         {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, counting);
    ASSERT_TRUE(p.engine->RunOneShot(0).ok());
    StepWcc(&p, 1, {{0, 3}}, {{1, 3}, {2, 3}});
    digests[mode] = p.engine->last_stats().state_digest;
    comps[mode] = CompColumn(p, 4);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(comps[0], comps[1]);

  Pipeline fresh = MakeWcc("re_fresh", 4, {{0, 1}, {0, 2}, {0, 3}},
                           /*min_counting=*/true);
  ASSERT_TRUE(fresh.engine->RunOneShot(0).ok());
  EXPECT_EQ(fresh.engine->last_stats().state_digest, digests[0]);
  EXPECT_EQ(CompColumn(fresh, 4), comps[0]);
}

}  // namespace
}  // namespace itg
