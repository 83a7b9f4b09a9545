// Two-level indexed calendar queue for simulator events.
//
// The near future is an array of fixed-width time buckets; events beyond the
// bucketed window wait in a single overflow heap. Pops scan forward from the
// current bucket, so ordering work is paid per bucket-sized heap (tens of
// events) instead of per whole-queue heap (hundreds of thousands), and when
// the window drains the queue re-centers itself on the earliest overflow
// event — sparse stretches (a failed-link stall hours away) cost one refill,
// not a scan.
//
// Bucket nodes are 24-byte PODs (when, seq, slot index): reordering moves
// trivially-copyable keys the compiler inlines to register copies, while the
// event itself — with its callback — is written into a slab once on Push and
// moved out once on PopTop. Each bucket starts life as a plain sorted run
// (synchronous collectives push waves of same-timestamp events in ascending
// seq order, so push and pop are both O(1) appends/advances) and falls back
// to a binary min-heap only when an out-of-order push lands in it.
//
// Exactness is the contract: every bucket yields its events in ascending
// (when, seq) — trivially in sorted-run mode, by heap property otherwise —
// and the bucket index map is monotone in `when`, so extraction order is
// exactly the (when, seq) total order a single global heap would produce —
// bit-identical simulated time, independent of bucket geometry.
//
// Events whose timestamp precedes the current bucket (legal after the window
// re-centers past a deadline-paused clock) clamp into the current bucket:
// the in-bucket heap still orders them first, and every later bucket holds
// strictly later events, so the total order is preserved.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace tpu::sim {

// Event must expose `SimTime when` and an insertion sequence number `seq`;
// extraction follows ascending (when, seq).
template <typename Event>
class CalendarQueue {
 public:
  // Default geometry: ~15.6ns buckets, 256us window. Dense collective
  // simulations run thousands of events per microsecond, so narrow buckets
  // keep each in-bucket heap small enough to stay cache-resident; the window
  // is wide enough that normal link-latency scheduling never overflows.
  explicit CalendarQueue(SimTime bucket_width = 1.5625e-8,
                         std::size_t num_buckets = 16384)
      : bucket_width_(bucket_width),
        num_buckets_(num_buckets),
        buckets_(num_buckets),
        window_start_(0.0),
        window_end_(bucket_width * static_cast<SimTime>(num_buckets)) {
    TPU_CHECK_GT(bucket_width, 0.0);
    TPU_CHECK_GT(num_buckets, 0u);
  }

  bool empty() const { return near_count_ == 0 && overflow_.empty(); }
  std::size_t size() const { return near_count_ + overflow_.size(); }
  // Times the window re-centered on the overflow heap (event-core health).
  std::uint64_t refills() const { return refills_; }

  // Returns a drained queue to its constructed state — window at time 0, no
  // refills — keeping the buckets' and the slab's memory.
  void Reset() {
    TPU_CHECK(empty()) << "Reset on a non-empty CalendarQueue";
    cursor_ = 0;
    window_start_ = 0.0;
    window_end_ = bucket_width_ * static_cast<SimTime>(num_buckets_);
    refills_ = 0;
  }

  void Push(Event&& event) {
    const Node node{event.when, event.seq, Store(std::move(event))};
    if (node.when >= window_end_) {
      overflow_.push_back(node);
      std::push_heap(overflow_.begin(), overflow_.end(), After{});
      return;
    }
    PushNear(node);
  }

  // The next event in (when, seq) order. May advance the internal cursor or
  // re-center the window, hence non-const; the queue must not be empty.
  const Event& Top() {
    Normalize();
    return slab_[buckets_[cursor_].Min().slot];
  }

  // Removes and returns the next event (moved out, never copied).
  Event PopTop() {
    Normalize();
    const std::uint32_t slot = buckets_[cursor_].PopMin();
    --near_count_;
    Event event = std::move(slab_[slot]);
    free_slots_.push_back(slot);
    return event;
  }

 private:
  // What the buckets actually order: the sort key plus a slab index.
  // Trivially copyable, so reordering moves compile to plain register/stack
  // copies.
  struct Node {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Min-heap comparator: the STL heap primitives build a max-heap on the
  // comparator, so "after" ordering yields ascending (when, seq) extraction.
  struct After {
    bool operator()(const Node& a, const Node& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // One bucket. Synchronous collectives complete waves of messages at
  // identical timestamps in schedule order, so pushes into a bucket usually
  // arrive already in ascending (when, seq) order; the bucket exploits that
  // by staying a plain FIFO run (O(1) push, O(1) pop) until an out-of-order
  // push arrives, at which point the unconsumed tail is heapified once and
  // the bucket runs as a binary heap until it drains. Extraction order is
  // exact in both modes.
  struct Bucket {
    std::vector<Node> nodes;
    std::uint32_t head = 0;  // consumed prefix in sorted-run mode
    bool heaped = false;

    bool Empty() const {
      return heaped ? nodes.empty() : head == nodes.size();
    }

    void Push(const Node& node) {
      if (!heaped) {
        if (head == nodes.size()) {
          // Fully drained: restart the run.
          nodes.clear();
          head = 0;
          nodes.push_back(node);
          return;
        }
        if (!After{}(nodes.back(), node)) {  // node sorts at/after the back
          nodes.push_back(node);
          return;
        }
        // Out-of-order push: drop the consumed prefix and fall back to a
        // heap for the rest of this bucket's lifetime in the window.
        nodes.erase(nodes.begin(), nodes.begin() + head);
        head = 0;
        heaped = true;
        nodes.push_back(node);
        std::make_heap(nodes.begin(), nodes.end(), After{});
        return;
      }
      nodes.push_back(node);
      std::push_heap(nodes.begin(), nodes.end(), After{});
    }

    const Node& Min() const { return heaped ? nodes.front() : nodes[head]; }

    std::uint32_t PopMin() {
      if (!heaped) return nodes[head++].slot;
      std::pop_heap(nodes.begin(), nodes.end(), After{});
      const std::uint32_t slot = nodes.back().slot;
      nodes.pop_back();
      if (nodes.empty()) heaped = false;  // reset to FIFO mode for reuse
      return slot;
    }
  };

  std::uint32_t Store(Event&& event) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slab_[slot] = std::move(event);
      return slot;
    }
    slab_.push_back(std::move(event));
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void PushNear(const Node& node) {
    std::size_t index = cursor_;
    if (node.when > window_start_) {
      const double offset = (node.when - window_start_) / bucket_width_;
      // The index map only needs monotonicity for exactness; clamp fp
      // boundary spill into the window edges.
      std::size_t computed = offset >= static_cast<double>(num_buckets_)
                                 ? num_buckets_ - 1
                                 : static_cast<std::size_t>(offset);
      if (computed > index) index = computed;
      if (index >= num_buckets_) index = num_buckets_ - 1;
    }
    buckets_[index].Push(node);
    ++near_count_;
  }

  // Establishes: buckets_[cursor_] holds the globally minimal event.
  void Normalize() {
    TPU_CHECK(!empty()) << "Top/Pop on an empty CalendarQueue";
    if (near_count_ == 0) Refill();
    while (buckets_[cursor_].Empty()) {
      ++cursor_;
      TPU_CHECK_LT(cursor_, num_buckets_);
    }
  }

  // Re-centers the bucketed window on the earliest overflow event and pulls
  // every overflow event inside the new window into its bucket.
  void Refill() {
    ++refills_;
    cursor_ = 0;
    window_start_ = overflow_.front().when;
    window_end_ =
        window_start_ + bucket_width_ * static_cast<SimTime>(num_buckets_);
    while (!overflow_.empty() && overflow_.front().when < window_end_) {
      std::pop_heap(overflow_.begin(), overflow_.end(), After{});
      PushNear(overflow_.back());
      overflow_.pop_back();
    }
  }

  SimTime bucket_width_;
  std::size_t num_buckets_;
  std::vector<Bucket> buckets_;  // each FIFO-run or min-heap on (when, seq)
  std::size_t cursor_ = 0;       // first possibly-nonempty bucket
  std::size_t near_count_ = 0;   // events across all buckets
  SimTime window_start_;
  SimTime window_end_;
  std::vector<Node> overflow_;   // min-heap of nodes at/after window_end_
  std::uint64_t refills_ = 0;
  std::vector<Event> slab_;              // parked events, indexed by slot
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace tpu::sim
