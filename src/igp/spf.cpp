#include "igp/spf.h"

#include <algorithm>
#include <memory>
#include <new>
#include <queue>

#include "obs/stage.h"
#include "obs/telemetry.h"

namespace mum::igp {

namespace {

struct QueueItem {
  std::uint32_t dist;
  topo::RouterId router;
  friend bool operator>(const QueueItem& a, const QueueItem& b) {
    return a.dist > b.dist;
  }
};

// IGP costs are small integers, so the pending Dijkstra frontier spans at
// most max_cost distinct distances: a cyclic bucket ("dial") queue settles
// routers in O(V + E + max_dist) with no heap. Above this cost bound the
// bucket ring would outgrow its benefit and we fall back to a binary heap.
inline constexpr std::uint32_t kMaxDialCost = 4096;

bool is_down(const std::vector<bool>& down, topo::LinkId l) {
  return !down.empty() && down[l];
}

// Dijkstra via dial queue. Preconditions: 1 <= every arc cost <= max_cost.
// Worker scratch is thread_local: reused across rows, never across threads.
void dijkstra_dial(const topo::CsrAdjacency& csr, topo::RouterId src,
                   const std::vector<bool>& down, std::uint32_t* dist) {
  const std::uint32_t ring = csr.max_cost() + 1;
  thread_local std::vector<std::vector<topo::RouterId>> buckets;
  if (buckets.size() < ring) buckets.resize(ring);  // drained when done
  dist[src] = 0;
  buckets[0].push_back(src);
  std::size_t pending = 1;
  std::uint32_t cur = 0;
  while (pending > 0) {
    std::vector<topo::RouterId>& bucket = buckets[cur % ring];
    // Relaxations from distance `cur` land in (cur, cur + max_cost], never
    // back into this bucket, so draining it is safe.
    while (!bucket.empty()) {
      const topo::RouterId u = bucket.back();
      bucket.pop_back();
      --pending;
      if (dist[u] != cur) continue;  // stale entry, improved meanwhile
      for (const topo::CsrArc& arc : csr.out(u)) {
        if (is_down(down, arc.link)) continue;
        const std::uint32_t nd = cur + arc.cost;
        if (nd < dist[arc.to]) {
          dist[arc.to] = nd;
          buckets[nd % ring].push_back(arc.to);
          ++pending;
        }
      }
    }
    ++cur;
  }
}

void dijkstra_heap(const topo::CsrAdjacency& csr, topo::RouterId src,
                   const std::vector<bool>& down, std::uint32_t* dist) {
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  dist[src] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const topo::CsrArc& arc : csr.out(u)) {
      if (is_down(down, arc.link)) continue;
      const std::uint32_t nd = d + arc.cost;
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        pq.push({nd, arc.to});
      }
    }
  }
}

}  // namespace

void IgpState::SlotsDeleter::operator()(Slot* slots) const noexcept {
  for (std::size_t t = 0; t < n; ++t) {
    ::operator delete(
        const_cast<std::uint32_t*>(slots[t].load(std::memory_order_relaxed)));
  }
  delete[] slots;
}

IgpState IgpState::compute(const topo::AsTopology& topo,
                           const std::vector<bool>* link_down,
                           const LinkOverlay* overlay) {
  static obs::Counter& computes = obs::registry().counter("igp.computes");
  computes.inc();

  IgpState state;
  state.n_ = topo.router_count();
  state.csr_ = overlay != nullptr && !overlay->cost.empty()
                   ? topo.make_csr(&overlay->cost)
                   : topo.make_csr();
  if (link_down != nullptr) state.down_ = *link_down;
  if (overlay != nullptr && !overlay->down.empty()) {
    if (state.down_.empty()) {
      state.down_ = overlay->down;
    } else {
      for (std::size_t l = 0; l < state.down_.size(); ++l) {
        if (overlay->down[l]) state.down_[l] = true;
      }
    }
  }
  if (std::find(state.down_.begin(), state.down_.end(), true) ==
      state.down_.end()) {
    state.down_.clear();
  }

  // Connected components over the surviving links, labelled by flood fill
  // in router order.
  state.component_.assign(state.n_, kUnreachable);
  std::vector<topo::RouterId> stack;
  for (topo::RouterId root = 0; root < state.n_; ++root) {
    if (state.component_[root] != kUnreachable) continue;
    state.component_[root] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      const topo::RouterId u = stack.back();
      stack.pop_back();
      for (const topo::CsrArc& arc : state.csr_.out(u)) {
        if (is_down(state.down_, arc.link) ||
            state.component_[arc.to] != kUnreachable) {
          continue;
        }
        state.component_[arc.to] = root;
        stack.push_back(arc.to);
      }
    }
  }

  state.slots_ = std::unique_ptr<Slot[], SlotsDeleter>(
      new Slot[state.n_](), SlotsDeleter{state.n_});
  return state;
}

const std::uint32_t* IgpState::install(topo::RouterId dst) const {
  // Rows are computed wherever they are first read (cycle evolution, flap
  // reroutes, probe workers); the stage span attributes each one as SPF
  // work of whichever cycle is current.
  const obs::StageSpan span(obs::Stage::kSpf);
  static obs::Counter& rows =
      obs::registry().counter("igp.spf_rows_computed");
  static obs::Histogram& duration =
      obs::registry().histogram("igp.compute_ns");
  const obs::ScopedTimer timer(duration);

  thread_local std::vector<std::uint32_t> words;
  words.assign(2 * n_ + 1, kUnreachable);
  std::uint32_t* dist = words.data();
  std::uint32_t* begin = dist + n_;
  if (csr_.max_cost() >= 1 && csr_.max_cost() <= kMaxDialCost) {
    dijkstra_dial(csr_, dst, down_, dist);
  } else {
    dijkstra_heap(csr_, dst, down_, dist);
  }

  // Router r's next hops toward dst: its live arcs onto a shortest path,
  // i.e. cost + dist[to] == dist[r]. CSR arcs are in ascending link-id
  // order, which is the order the rows keep. Built in per-thread scratch,
  // then copied into one exactly sized block.
  thread_local std::vector<NextHop> nh;
  nh.clear();
  for (topo::RouterId r = 0; r < n_; ++r) {
    begin[r] = static_cast<std::uint32_t>(nh.size());
    const std::uint32_t dr = dist[r];
    if (r == dst || dr == kUnreachable) continue;
    for (const topo::CsrArc& arc : csr_.out(r)) {
      if (is_down(down_, arc.link)) continue;
      const std::uint32_t dto = dist[arc.to];
      if (dto != kUnreachable && dto + arc.cost == dr) {
        nh.push_back(NextHop{arc.link, arc.to});
      }
    }
  }
  begin[n_] = static_cast<std::uint32_t>(nh.size());

  // One block: the words, then the next hops (NextHop is two words, so
  // the hops start aligned right after the words; hops_of() finds them).
  static_assert(alignof(NextHop) == alignof(std::uint32_t));
  auto* fresh = static_cast<std::uint32_t*>(::operator new(
      words.size() * sizeof(std::uint32_t) + nh.size() * sizeof(NextHop)));
  std::uninitialized_copy(words.begin(), words.end(), fresh);
  std::uninitialized_copy(nh.begin(), nh.end(),
                          reinterpret_cast<NextHop*>(fresh + words.size()));

  // First writer wins; a racing reader's equal row is dropped.
  const std::uint32_t* expected = nullptr;
  if (slots_[dst].compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    rows.inc();
    return fresh;
  }
  ::operator delete(fresh);
  return expected;
}

std::uint64_t IgpState::path_count(topo::RouterId src, topo::RouterId dst,
                                   std::uint64_t cap) const {
  if (src == dst) return 1;
  if (!reachable(src, dst)) return 0;
  // Memoized DP over the next-hop DAG: memo[v] = min(#paths v->dst, cap).
  // kUnset must stay distinct from any legal value, so clamp cap below ~0.
  constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  cap = std::min(cap, kUnset - 1);
  std::vector<std::uint64_t> memo(n_, kUnset);
  memo[dst] = 1;

  // Iterative DFS (explicit stack) so deep DAGs cannot overflow the C stack.
  std::vector<topo::RouterId> stack{src};
  while (!stack.empty()) {
    const topo::RouterId v = stack.back();
    if (memo[v] != kUnset) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const NextHop& nh : nexthops(v, dst)) {
      if (memo[nh.neighbor] == kUnset) {
        stack.push_back(nh.neighbor);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    std::uint64_t total = 0;
    for (const NextHop& nh : nexthops(v, dst)) {
      const std::uint64_t c = memo[nh.neighbor];
      total = c >= cap - total ? cap : total + c;
      if (total >= cap) break;
    }
    memo[v] = total;
  }
  return memo[src];
}

}  // namespace mum::igp
