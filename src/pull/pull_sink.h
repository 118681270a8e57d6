/// \file pull_sink.h
/// \brief The delivery interface between the pull server and a waiting
/// page fetch.
///
/// Kept in its own header so `broadcast/channel.h` (whose `PageAwaiter`
/// implements the interface) can depend on it without pulling in the
/// whole pull server.

#ifndef BCAST_PULL_PULL_SINK_H_
#define BCAST_PULL_PULL_SINK_H_

#include "broadcast/types.h"

namespace bcast::pull {

/// \brief A party waiting for a page that a pull slot may deliver early.
class PullSink {
 public:
  /// A pull-slot transmission of the awaited page completed at
  /// \p deliver_end. Returns true when the sink consumed it (the wait is
  /// over); false when this receiver could not hear it (the wait began
  /// after the slot started, dozing, loss, corruption) and keeps
  /// waiting — the server then re-registers the sink for any later pull
  /// of the same page.
  virtual bool OnPullDelivery(double deliver_end) = 0;

 protected:
  ~PullSink() = default;
};

/// \brief The waiter-table side of a pull provider, as the broadcast
/// channel sees it.
///
/// `BroadcastChannel` races every tracked wait against "something that
/// may transmit the page out of band". For the single-threaded paths
/// that something is the `PullServer` itself; the sharded population
/// engine substitutes a shard-local hub that mirrors the server's
/// delivery schedule. Keeping the channel against this interface is
/// what lets one channel implementation serve both worlds.
class WaiterRegistry {
 public:
  /// Registers \p sink for the next pull transmission of \p page.
  virtual void AddWaiter(PageId page, PullSink* sink) = 0;

  /// Removes \p sink from \p page's waiter list (no-op when absent).
  virtual void RemoveWaiter(PageId page, PullSink* sink) = 0;

 protected:
  ~WaiterRegistry() = default;
};

}  // namespace bcast::pull

#endif  // BCAST_PULL_PULL_SINK_H_
