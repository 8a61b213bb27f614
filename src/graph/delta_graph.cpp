#include "graph/delta_graph.hpp"

#include <algorithm>

namespace pushpull {

// --- SnapshotCsr -------------------------------------------------------------

SnapshotCsr::SnapshotCsr(std::shared_ptr<const Csr> base,
                         std::vector<vid_t> touched,
                         std::vector<eid_t> patch_off,
                         std::vector<vid_t> patch_adj,
                         std::vector<weight_t> patch_w)
    : base_(std::move(base)),
      touched_(std::move(touched)),
      patch_off_(std::move(patch_off)),
      patch_adj_(std::move(patch_adj)),
      patch_w_(std::move(patch_w)) {
  PP_CHECK(base_ != nullptr);
  PP_CHECK(patch_off_.size() == touched_.size() + 1);
  PP_CHECK(patch_off_.front() == 0);
  PP_CHECK(patch_off_.back() == static_cast<eid_t>(patch_adj_.size()));
  PP_CHECK(patch_w_.empty() || patch_w_.size() == patch_adj_.size());
  PP_CHECK(std::is_sorted(touched_.begin(), touched_.end()));
  base_arcs_ = base_->num_arcs();
  arcs_ = base_arcs_ + static_cast<eid_t>(patch_adj_.size());
  slot_of_.assign(static_cast<std::size_t>(base_->n()), -1);
  for (std::size_t s = 0; s < touched_.size(); ++s) {
    const vid_t v = touched_[s];
    PP_CHECK(v >= 0 && v < base_->n());
    auto& slot = slot_of_[static_cast<std::size_t>(v)];
    PP_CHECK(slot < 0 && "touched list must be duplicate-free");
    slot = static_cast<std::int32_t>(s);
    arcs_ -= base_->degree(v);
  }
}

bool SnapshotCsr::has_edge(vid_t u, vid_t v) const noexcept {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

vid_t SnapshotCsr::max_degree() const noexcept {
  if (max_degree_cache_ >= 0) return max_degree_cache_;
  vid_t best = 0;
  for (vid_t v = 0; v < n(); ++v) best = std::max(best, degree(v));
  max_degree_cache_ = best;
  return best;
}

Csr SnapshotCsr::materialize() const {
  const vid_t nn = n();
  std::vector<eid_t> offsets(static_cast<std::size_t>(nn) + 1, 0);
  for (vid_t v = 0; v < nn; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] + degree(v);
  }
  std::vector<vid_t> adj(static_cast<std::size_t>(offsets.back()));
  std::vector<weight_t> weights;
  if (has_weights()) weights.resize(adj.size());
  for (vid_t v = 0; v < nn; ++v) {
    const auto nb = neighbors(v);
    std::copy(nb.begin(), nb.end(),
              adj.begin() + static_cast<std::size_t>(offsets[v]));
    if (has_weights()) {
      const auto wv = this->weights(v);
      std::copy(wv.begin(), wv.end(),
                weights.begin() + static_cast<std::size_t>(offsets[v]));
    }
  }
  return Csr(std::move(offsets), std::move(adj), std::move(weights));
}

// --- DeltaGraph --------------------------------------------------------------

namespace {

// The builder's contract, verified once at the seam: sorted, duplicate-free
// adjacency (overlay merging and duplicate detection rely on it).
void check_base(const Csr& g) {
  for (vid_t v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 1; i < nb.size(); ++i) {
      PP_CHECK(nb[i - 1] < nb[i] &&
               "DeltaGraph base must have sorted, duplicate-free adjacency");
    }
  }
}

}  // namespace

DeltaGraph::DeltaGraph(Csr base) : symmetric_(true) {
  check_base(base);
  n_ = base.n();
  out_.base = std::make_shared<const Csr>(std::move(base));
  in_.base = out_.base;
}

DeltaGraph::DeltaGraph(Digraph base) : symmetric_(false) {
  check_base(base.out);
  check_base(base.in);
  PP_CHECK(base.out.n() == base.in.n());
  PP_CHECK(base.out.num_arcs() == base.in.num_arcs());
  n_ = base.out.n();
  out_.base = std::make_shared<const Csr>(std::move(base.out));
  in_.base = std::make_shared<const Csr>(std::move(base.in));
}

epoch_t DeltaGraph::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

epoch_t DeltaGraph::oldest_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return oldest_epoch_;
}

bool DeltaGraph::arc_visible(const Side& side, vid_t u, vid_t v,
                             epoch_t e) const {
  const auto it = side.delta.find(u);
  if (it != side.delta.end()) {
    for (const OverlayArc& a : it->second.inserts) {
      if (a.to == v && a.born <= e && e < a.died) return true;
    }
    for (const Tombstone& t : it->second.removals) {
      if (t.to == v && t.died <= e) return false;
    }
  }
  const auto nb = side.base->neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

void DeltaGraph::stage_insert(Side& side, vid_t u, vid_t v, weight_t w,
                              epoch_t e) {
  auto& ov = side.delta[u];
  const OverlayArc arc{v, w, e, kNever};
  const auto pos = std::upper_bound(
      ov.inserts.begin(), ov.inserts.end(), arc,
      [](const OverlayArc& a, const OverlayArc& b) {
        return a.to != b.to ? a.to < b.to : a.born < b.born;
      });
  ov.inserts.insert(pos, arc);
}

void DeltaGraph::stage_remove(Side& side, vid_t u, vid_t v, epoch_t e) {
  auto& ov = side.delta[u];
  // A live overlay insert dies; otherwise the arc lives in the base and gets
  // a tombstone. (arc_visible guaranteed one of the two holds.)
  for (OverlayArc& a : ov.inserts) {
    if (a.to == v && a.born <= e && e < a.died) {
      a.died = e;
      return;
    }
  }
  const Tombstone tomb{v, e};
  const auto pos = std::upper_bound(
      ov.removals.begin(), ov.removals.end(), tomb,
      [](const Tombstone& a, const Tombstone& b) { return a.to < b.to; });
  ov.removals.insert(pos, tomb);
}

bool DeltaGraph::add_edge(vid_t u, vid_t v, weight_t w) {
  PP_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  std::lock_guard<std::mutex> lk(mu_);
  const epoch_t staged = epoch_ + 1;
  if (arc_visible(out_, u, v, staged)) return false;
  stage_insert(out_, u, v, w, staged);
  if (symmetric_) {
    if (u != v) stage_insert(out_, v, u, w, staged);
  } else {
    stage_insert(in_, v, u, w, staged);
  }
  pending_.push_back(EdgeUpdate{u, v, w, /*insert=*/true});
  return true;
}

bool DeltaGraph::remove_edge(vid_t u, vid_t v) {
  PP_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  std::lock_guard<std::mutex> lk(mu_);
  const epoch_t staged = epoch_ + 1;
  if (!arc_visible(out_, u, v, staged)) return false;
  stage_remove(out_, u, v, staged);
  if (symmetric_) {
    if (u != v) stage_remove(out_, v, u, staged);
  } else {
    stage_remove(in_, v, u, staged);
  }
  pending_.push_back(EdgeUpdate{u, v, 1.0f, /*insert=*/false});
  return true;
}

std::size_t DeltaGraph::pending_updates() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.size();
}

epoch_t DeltaGraph::commit() {
  std::lock_guard<std::mutex> lk(mu_);
  if (pending_.empty()) return epoch_;
  obs::ScopedSpan<obs::Tracer> span(tracer_, "commit", "storage");
  span.arg("updates", static_cast<double>(pending_.size()));
  ++epoch_;
  history_.push_back(UpdateBatch{epoch_, std::move(pending_)});
  pending_.clear();
  span.arg("epoch", static_cast<double>(epoch_));
  span.arg("overlay_entries", static_cast<double>(overlay_entries_locked()));
  return epoch_;
}

std::shared_ptr<const SnapshotCsr> DeltaGraph::materialize_side(
    const Side& side, epoch_t e) const {
  std::vector<vid_t> touched;
  touched.reserve(side.delta.size());
  for (const auto& [v, ov] : side.delta) {
    bool differs = false;
    for (const OverlayArc& a : ov.inserts) {
      if (a.born <= e && e < a.died) {
        differs = true;
        break;
      }
    }
    if (!differs) {
      for (const Tombstone& t : ov.removals) {
        if (t.died <= e) {
          differs = true;
          break;
        }
      }
    }
    if (differs) touched.push_back(v);
  }
  std::sort(touched.begin(), touched.end());

  const bool weighted = side.base->has_weights();
  std::vector<eid_t> patch_off{0};
  patch_off.reserve(touched.size() + 1);
  std::vector<vid_t> patch_adj;
  std::vector<weight_t> patch_w;
  for (const vid_t v : touched) {
    const VertexOverlay& ov = side.delta.at(v);
    // Merge the sorted base adjacency with the live overlay inserts, dropping
    // tombstoned base arcs. Both inputs are sorted by target; at any epoch at
    // most one of {base arc, overlay arc} per target is live, so the merged
    // list stays sorted and duplicate-free.
    const auto nb = side.base->neighbors(v);
    const auto wb =
        weighted ? side.base->weights(v) : std::span<const weight_t>{};
    std::size_t bi = 0;
    std::size_t oi = 0;
    auto dead = [&](vid_t to) {
      for (const Tombstone& t : ov.removals) {
        if (t.to == to) return t.died <= e;
        if (t.to > to) break;
      }
      return false;
    };
    auto next_live_insert = [&]() {
      while (oi < ov.inserts.size()) {
        const OverlayArc& a = ov.inserts[oi];
        if (a.born <= e && e < a.died) return true;
        ++oi;
      }
      return false;
    };
    for (;;) {
      // Advance past non-live inserts *before* comparing targets — a dead
      // insert must never win the merge and leak into the patch.
      const bool has_ins = next_live_insert();
      const bool has_base = bi < nb.size();
      if (!has_base && !has_ins) break;
      if (has_base && (!has_ins || nb[bi] <= ov.inserts[oi].to)) {
        if (!dead(nb[bi])) {
          patch_adj.push_back(nb[bi]);
          if (weighted) patch_w.push_back(wb[bi]);
        }
        ++bi;
      } else {
        patch_adj.push_back(ov.inserts[oi].to);
        if (weighted) patch_w.push_back(ov.inserts[oi].w);
        ++oi;
      }
    }
    patch_off.push_back(static_cast<eid_t>(patch_adj.size()));
  }
  return std::make_shared<const SnapshotCsr>(side.base, std::move(touched),
                                             std::move(patch_off),
                                             std::move(patch_adj),
                                             std::move(patch_w));
}

SnapshotView DeltaGraph::snapshot_locked(epoch_t e) const {
  PP_CHECK(e >= oldest_epoch_ &&
           "snapshot epoch predates the compaction floor");
  PP_CHECK(e <= epoch_ && "snapshot epoch not committed yet");
  auto out = materialize_side(out_, e);
  auto in = symmetric_ ? out : materialize_side(in_, e);
  return SnapshotView(std::move(out), std::move(in), e);
}

SnapshotView DeltaGraph::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(epoch_);
}

SnapshotView DeltaGraph::snapshot(epoch_t e) const {
  std::lock_guard<std::mutex> lk(mu_);
  return snapshot_locked(e);
}

void DeltaGraph::rebase_side(Side& side, std::shared_ptr<const Csr> new_base,
                             epoch_t at) {
  std::unordered_map<vid_t, VertexOverlay> rebased;
  for (auto& [v, ov] : side.delta) {
    VertexOverlay keep;
    for (const OverlayArc& a : ov.inserts) {
      if (a.born > at) {
        // Staged after the compaction point: carries over unchanged.
        keep.inserts.push_back(a);
      } else if (a.died > at) {
        // Folded into the new base; a pending death becomes a tombstone.
        if (a.died != kNever) keep.removals.push_back(Tombstone{a.to, a.died});
      }
      // born <= at && died <= at: lived and died before the new base — gone.
    }
    for (const Tombstone& t : ov.removals) {
      // Deaths at or before the compaction point are baked into the new
      // base (the arc is simply absent); later ones still apply.
      if (t.died > at) keep.removals.push_back(t);
    }
    if (!keep.inserts.empty() || !keep.removals.empty()) {
      std::sort(keep.inserts.begin(), keep.inserts.end(),
                [](const OverlayArc& a, const OverlayArc& b) {
                  return a.to != b.to ? a.to < b.to : a.born < b.born;
                });
      std::sort(keep.removals.begin(), keep.removals.end(),
                [](const Tombstone& a, const Tombstone& b) {
                  return a.to < b.to;
                });
      rebased.emplace(v, std::move(keep));
    }
  }
  side.base = std::move(new_base);
  side.delta = std::move(rebased);
}

void DeltaGraph::compact() {
  // Materialize at the current committed epoch under the lock (O(overlay)),
  // expand into a fresh CSR outside it (O(n + m)), then swap. Updates staged
  // or committed while the merge runs stay in the overlay via the rebase.
  std::unique_lock<std::mutex> lk(mu_);
  obs::ScopedSpan<obs::Tracer> span(tracer_, "compact", "storage");
  const epoch_t at = epoch_;
  if (oldest_epoch_ == at && out_.delta.empty() && in_.delta.empty()) return;
  span.arg("overlay_entries_before",
           static_cast<double>(overlay_entries_locked()));
  auto out_snap = materialize_side(out_, at);
  auto in_snap = symmetric_ ? nullptr : materialize_side(in_, at);
  lk.unlock();

  auto new_out = std::make_shared<const Csr>(out_snap->materialize());
  auto new_in =
      symmetric_ ? new_out : std::make_shared<const Csr>(in_snap->materialize());

  lk.lock();
  rebase_side(out_, new_out, at);
  if (symmetric_) {
    in_.base = out_.base;
  } else {
    rebase_side(in_, new_in, at);
  }
  oldest_epoch_ = at;
  span.arg("epoch", static_cast<double>(at));
  span.arg("overlay_entries_after",
           static_cast<double>(overlay_entries_locked()));
}

std::vector<UpdateBatch> DeltaGraph::batches_since(epoch_t since) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<UpdateBatch> out;
  for (const UpdateBatch& b : history_) {
    if (b.epoch > since) out.push_back(b);
  }
  return out;
}

std::size_t DeltaGraph::num_batches_since(epoch_t since) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t count = 0;
  for (const UpdateBatch& b : history_) {
    if (b.epoch > since) ++count;
  }
  return count;
}

eid_t DeltaGraph::num_arcs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return materialize_side(out_, epoch_)->num_arcs();
}

std::size_t DeltaGraph::overlay_entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return overlay_entries_locked();
}

std::size_t DeltaGraph::overlay_entries_locked() const {
  std::size_t count = 0;
  for (const Side* side : {&out_, &in_}) {
    for (const auto& [v, ov] : side->delta) {
      count += ov.inserts.size() + ov.removals.size();
    }
  }
  return count;
}

std::vector<EdgeUpdate> flatten(const std::vector<UpdateBatch>& batches) {
  std::vector<EdgeUpdate> out;
  for (const UpdateBatch& b : batches) {
    out.insert(out.end(), b.updates.begin(), b.updates.end());
  }
  return out;
}

}  // namespace pushpull
