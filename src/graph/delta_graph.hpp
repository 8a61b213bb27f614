// Versioned mutable graph storage (ROADMAP: "Mutable graph storage +
// incremental recomputation").
//
// Every kernel in this repo traverses a frozen CSR; real serving workloads
// mutate the graph while queries run. DeltaGraph closes that gap with an
// LSM-flavored base/overlay split (cf. LSMGraph / LiveGraph):
//
//            writer ──► per-vertex overlay buffers (epoch-tagged)
//                         │ add_edge / remove_edge stage at epoch E+1
//                         │ commit()  ──► publishes epoch E+1
//                         ▼
//            sealed base CSR  +  overlay  ──snapshot(e)──►  SnapshotCsr
//                         ▲
//                         └── compact() merges overlay into a fresh base
//                             (live snapshots keep the old base alive)
//
// Epoch semantics: the base carries epoch `oldest_epoch()`; every commit()
// bumps the committed epoch by one and records its batch. A staged (not yet
// committed) operation is tagged epoch E+1 and is invisible to every
// snapshot until commit. snapshot(e) is valid for any epoch in
// [oldest_epoch(), epoch()] — compact() advances the floor.
//
// SnapshotCsr is a point-in-time view of one direction: vertices untouched
// by the overlay read straight from the sealed base (same spans, same edge
// ids — bit-for-bit the static layout); touched vertices read from a patched
// adjacency materialized at snapshot time, addressed by edge ids offset past
// the base arc range. Every per-vertex read resolves base-or-patch in O(1)
// through a dense slot index (4·n bytes per side, filled once per snapshot),
// so the cost of a read does not grow with the overlay. SnapshotCsr models
// the CsrLike concept (graph/csr.hpp), and SnapshotView pairs two of them
// (out + in; aliased for symmetric graphs) to model the engine's GraphView
// concept — every edge_map loop shape and every core kernel runs on a
// snapshot unmodified.
//
// Thread model: one writer thread owns add_edge/remove_edge/commit/compact;
// snapshot() and the read-only queries may be called from any thread
// concurrently with the writer (a mutex guards the mutable state, and a
// materialized snapshot is immutable — readers never observe writer
// progress). compact() does its O(n + m) merge outside the lock, so writers
// and snapshotters stall only for the pointer swap.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace pushpull {

using epoch_t = std::int64_t;

// One logical update as the writer issued it (for a symmetric DeltaGraph the
// reverse arc is implied). Committed batches hand these to the incremental
// kernels (core/incremental.hpp) so they can re-propagate from the touched
// frontier instead of recomputing from scratch.
struct EdgeUpdate {
  vid_t u = 0;
  vid_t v = 0;
  weight_t w = 1.0f;
  bool insert = true;
};

// The updates one commit() published, tagged with the epoch it created.
struct UpdateBatch {
  epoch_t epoch = 0;
  std::vector<EdgeUpdate> updates;
};

// --- SnapshotCsr -------------------------------------------------------------

// One direction of a point-in-time snapshot: a sealed base CSR plus a patch
// arena holding the merged (base ∖ deletions ∪ insertions) adjacency of every
// vertex the overlay touched at this epoch. Edge ids < base.num_arcs() index
// the base arrays; ids ≥ base.num_arcs() index the arena. Adjacency lists
// stay sorted ascending, so has_edge keeps its O(log d̂) bound and kernels
// that exploit sorted neighbors (triangle counting) work unchanged.
class SnapshotCsr {
 public:
  SnapshotCsr() = default;

  // Assembled by DeltaGraph; `touched` sorted ascending and duplicate-free
  // (it fills the slot index), `patch_off` spans `patch_adj` (and `patch_w`
  // when the base is weighted).
  SnapshotCsr(std::shared_ptr<const Csr> base, std::vector<vid_t> touched,
              std::vector<eid_t> patch_off, std::vector<vid_t> patch_adj,
              std::vector<weight_t> patch_w);

  vid_t n() const noexcept { return base_->n(); }
  eid_t num_arcs() const noexcept { return arcs_; }
  eid_t m_undirected() const noexcept { return arcs_ / 2; }

  vid_t degree(vid_t v) const noexcept {
    const int s = slot(v);
    return s < 0 ? base_->degree(v)
                 : static_cast<vid_t>(patch_off_[s + 1] - patch_off_[s]);
  }

  std::span<const vid_t> neighbors(vid_t v) const noexcept {
    const int s = slot(v);
    if (s < 0) return base_->neighbors(v);
    return {patch_adj_.data() + patch_off_[s],
            static_cast<std::size_t>(patch_off_[s + 1] - patch_off_[s])};
  }

  bool has_weights() const noexcept { return base_->has_weights(); }

  std::span<const weight_t> weights(vid_t v) const noexcept {
    PP_DCHECK(has_weights());
    const int s = slot(v);
    if (s < 0) return base_->weights(v);
    return {patch_w_.data() + patch_off_[s],
            static_cast<std::size_t>(patch_off_[s + 1] - patch_off_[s])};
  }

  eid_t edge_begin(vid_t v) const noexcept {
    const int s = slot(v);
    return s < 0 ? base_->edge_begin(v) : base_arcs_ + patch_off_[s];
  }

  eid_t edge_end(vid_t v) const noexcept {
    const int s = slot(v);
    return s < 0 ? base_->edge_end(v) : base_arcs_ + patch_off_[s + 1];
  }

  vid_t edge_target(eid_t e) const noexcept {
    return e < base_arcs_ ? base_->edge_target(e)
                          : patch_adj_[static_cast<std::size_t>(e - base_arcs_)];
  }

  weight_t edge_weight(eid_t e) const noexcept {
    if (e < base_arcs_) return base_->edge_weight(e);
    return patch_w_.empty() ? 1.0f
                            : patch_w_[static_cast<std::size_t>(e - base_arcs_)];
  }

  // Offset array of the *base* — kernels pass these addresses to the
  // instrumentation model (e.g. PageRank charges one read for the neighbor's
  // degree lookup); the modeled working set is the base layout.
  const std::vector<eid_t>& offsets() const noexcept { return base_->offsets(); }

  bool has_edge(vid_t u, vid_t v) const noexcept;
  vid_t max_degree() const noexcept;
  double avg_degree() const noexcept {
    return n() == 0 ? 0.0 : static_cast<double>(arcs_) / n();
  }

  // Vertices whose adjacency differs from the sealed base (sorted).
  std::span<const vid_t> touched() const noexcept { return touched_; }
  const Csr& base() const noexcept { return *base_; }

  // Expands the patched view into a standalone CSR (compaction, checkpoints).
  Csr materialize() const;

 private:
  // Index into the patch arrays, or -1 when v reads from the base.
  int slot(vid_t v) const noexcept {
    return slot_of_[static_cast<std::size_t>(v)];
  }

  std::shared_ptr<const Csr> base_;
  eid_t base_arcs_ = 0;
  eid_t arcs_ = 0;
  std::vector<vid_t> touched_;
  std::vector<std::int32_t> slot_of_;  // n entries: patch slot, or -1 (base)
  std::vector<eid_t> patch_off_{0};
  std::vector<vid_t> patch_adj_;
  std::vector<weight_t> patch_w_;
  mutable vid_t max_degree_cache_ = -1;
};

static_assert(CsrLike<SnapshotCsr>);

// --- SnapshotView ------------------------------------------------------------

// A point-in-time GraphView over a DeltaGraph: push walks out(), pull walks
// in(); for a symmetric graph both alias one SnapshotCsr. Immutable after
// construction and safe to share across threads; holds shared ownership of
// its base CSR(s), so later commits and compactions never invalidate it.
class SnapshotView {
 public:
  SnapshotView(std::shared_ptr<const SnapshotCsr> out,
               std::shared_ptr<const SnapshotCsr> in, epoch_t epoch)
      : out_(std::move(out)), in_(std::move(in)), epoch_(epoch) {
    PP_CHECK(out_ != nullptr && in_ != nullptr);
    PP_CHECK(out_->n() == in_->n());
    PP_CHECK(out_->num_arcs() == in_->num_arcs());
  }

  const SnapshotCsr& out() const noexcept { return *out_; }
  const SnapshotCsr& in() const noexcept { return *in_; }
  vid_t n() const noexcept { return out_->n(); }
  eid_t num_arcs() const noexcept { return out_->num_arcs(); }
  vid_t out_degree(vid_t v) const noexcept { return out_->degree(v); }
  vid_t in_degree(vid_t v) const noexcept { return in_->degree(v); }
  bool is_symmetric() const noexcept { return out_ == in_; }

  // The committed epoch this snapshot observes.
  epoch_t epoch() const noexcept { return epoch_; }

  // Arc-reversed view: forward functors traverse backward, as with
  // DigraphView::reversed().
  SnapshotView reversed() const noexcept { return SnapshotView(in_, out_, epoch_); }

 private:
  std::shared_ptr<const SnapshotCsr> out_;
  std::shared_ptr<const SnapshotCsr> in_;
  epoch_t epoch_ = 0;
};

// --- DeltaGraph --------------------------------------------------------------

class DeltaGraph {
 public:
  // Symmetric store: add_edge(u, v) stages both arcs; out and in alias.
  // The base must have sorted, duplicate-free adjacency (the builder's
  // contract) — checked on construction.
  explicit DeltaGraph(Csr base);

  // Directed store: add_edge(u, v) stages arc u→v (and its transpose in the
  // in-side). Both CSRs checked as for the symmetric case.
  explicit DeltaGraph(Digraph base);

  DeltaGraph(const DeltaGraph&) = delete;
  DeltaGraph& operator=(const DeltaGraph&) = delete;

  vid_t n() const noexcept { return n_; }
  bool is_symmetric() const noexcept { return symmetric_; }

  // Latest committed epoch; the sealed base is oldest_epoch().
  epoch_t epoch() const;
  epoch_t oldest_epoch() const;

  // Stage an edge insertion at epoch()+1. Returns false (and stages nothing)
  // when the arc is already present in the staged state — duplicate arcs are
  // never stored. Self-loops are allowed. Endpoints must be < n(): the vertex
  // set is fixed at construction.
  bool add_edge(vid_t u, vid_t v, weight_t w = 1.0f);

  // Stage an edge removal at epoch()+1. Returns false when the arc is absent
  // from the staged state.
  bool remove_edge(vid_t u, vid_t v);

  // Number of staged (uncommitted) updates.
  std::size_t pending_updates() const;

  // Publish the staged updates as one batch, returning the new epoch. A
  // commit with nothing staged is a no-op returning the current epoch.
  epoch_t commit();

  // Point-in-time view at the latest committed epoch / at `e`. Aborts when
  // `e` predates the compaction floor or exceeds the committed epoch.
  SnapshotView snapshot() const;
  SnapshotView snapshot(epoch_t e) const;

  // Merge the committed overlay into a fresh sealed base at the current
  // committed epoch. Live SnapshotViews keep the old base alive; staged
  // (uncommitted) updates survive and re-anchor onto the new base. After
  // compaction, snapshots older than the compaction epoch can no longer be
  // taken. The heavy merge runs outside the lock (a writer may keep staging
  // concurrently); only the swap blocks readers.
  void compact();

  // Committed batches with epoch > `since`, oldest first. `since` at or
  // beyond epoch() yields an empty vector.
  std::vector<UpdateBatch> batches_since(epoch_t since) const;

  // How many commits landed after `since` — the serving layer's staleness
  // gauge: a query pinned to epoch e reports num_batches_since(e) as how far
  // behind the live graph its answer is. Cheaper than batches_since (no
  // update copies).
  std::size_t num_batches_since(epoch_t since) const;

  // Visible arc count at the latest committed epoch (symmetric graphs count
  // each edge twice, as Csr does).
  eid_t num_arcs() const;

  // Diagnostics: live overlay entries not yet folded into the base.
  std::size_t overlay_entries() const;

  // Attach a live tracer (nullptr detaches): commit() and compact() record
  // "storage" spans tagged with update and overlay-entry counts. DeltaGraph
  // is a concrete class, so unlike the templated kernels this hook is a
  // runtime pointer — the un-attached cost is one predictable branch per
  // commit/compact, nowhere near a hot path. The tracer must outlive the
  // attachment; calls follow the writer-thread discipline commit/compact
  // already require.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  static constexpr epoch_t kNever = std::numeric_limits<epoch_t>::max();

  // An arc the overlay inserted, alive in [born, died).
  struct OverlayArc {
    vid_t to;
    weight_t w;
    epoch_t born;
    epoch_t died;
  };

  // A base arc the overlay deleted, dead from `died` on.
  struct Tombstone {
    vid_t to;
    epoch_t died;
  };

  struct VertexOverlay {
    std::vector<OverlayArc> inserts;  // sorted by (to, born)
    std::vector<Tombstone> removals;  // sorted by to; at most one per target
  };

  struct Side {
    std::shared_ptr<const Csr> base;
    std::unordered_map<vid_t, VertexOverlay> delta;
  };

  // Is arc (u, v) of `side` visible at epoch e? (lock held)
  bool arc_visible(const Side& side, vid_t u, vid_t v, epoch_t e) const;
  // Stage arc (u, v) insertion/removal on one side at epoch e. (lock held)
  void stage_insert(Side& side, vid_t u, vid_t v, weight_t w, epoch_t e);
  void stage_remove(Side& side, vid_t u, vid_t v, epoch_t e);

  // Materialize one side at epoch e. (lock held)
  std::shared_ptr<const SnapshotCsr> materialize_side(const Side& side,
                                                      epoch_t e) const;
  SnapshotView snapshot_locked(epoch_t e) const;

  // Re-anchor one side's overlay onto a base sealed at epoch `at`. (lock held)
  void rebase_side(Side& side, std::shared_ptr<const Csr> new_base, epoch_t at);

  // Live overlay entries with the lock already held (commit/compact spans).
  std::size_t overlay_entries_locked() const;

  mutable std::mutex mu_;
  obs::Tracer* tracer_ = nullptr;
  vid_t n_ = 0;
  bool symmetric_ = true;
  epoch_t epoch_ = 0;         // latest committed
  epoch_t oldest_epoch_ = 0;  // the sealed base's epoch (compaction floor)
  Side out_;
  Side in_;  // symmetric: in_.base aliases out_.base and in_.delta stays empty
  std::vector<EdgeUpdate> pending_;
  std::vector<UpdateBatch> history_;
};

// Flattens committed batches into one update list (the shape the incremental
// kernels consume).
std::vector<EdgeUpdate> flatten(const std::vector<UpdateBatch>& batches);

}  // namespace pushpull
