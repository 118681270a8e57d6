/// \file pull_client.h
/// \brief The client side of the hybrid system: the pull decision rule,
/// at-most-one outstanding request, and timeout/re-request recovery.
///
/// A client requests a page over the backchannel only when the broadcast
/// schedule would make it wait longer than a threshold — hot pages come
/// around fast and are never worth an uplink slot; cold pages (the slow
/// disk's) almost always are. One request may be outstanding at a time
/// (the uplink is scarce), and an unanswered request is re-sent after a
/// timeout measured in pull service intervals, which is what makes pull
/// work under uplink loss and backchannel drops: the same recovery
/// philosophy as `src/fault/` (the broadcast never asks "where is my
/// reply?" more than once per deadline), applied to the uplink.

#ifndef BCAST_PULL_PULL_CLIENT_H_
#define BCAST_PULL_PULL_CLIENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "broadcast/types.h"
#include "common/rng.h"
#include "des/simulation.h"
#include "pull/pull_params.h"
#include "pull/pull_server.h"

namespace bcast::pull {

/// \brief How a PullClient reaches the pull server.
///
/// The single-threaded paths talk to the in-simulation `PullServer`
/// directly; the population engine substitutes a shard-side transport
/// that collects submits for the coordinator to replay at the round
/// barrier. The decision rule never depends on the submit's outcome
/// (admission, loss, and enqueue are server-side accounting), which is
/// exactly what makes the deferred transport equivalent.
struct PullTransport {
  /// Whether the program carries pull capacity (constant over a layout
  /// generation; the adaptive controller never toggles enablement).
  bool enabled = false;
  /// One uplink send: admission + in-flight loss + enqueue, all on the
  /// server side of the transport.
  std::function<void(PageId page, double now, bool re_request)> submit;
  /// Mean slots between pull-slot starts under the current layout.
  std::function<double()> service_interval;
  /// Where this client's delivery/latency accounting lands.
  PullStats* stats = nullptr;
};

/// \brief Per-client pull requester. Hooks into the client request loop:
/// `MaybeRequest` just before a broadcast wait begins, `OnFetchDone`
/// right after it completes.
class PullClient {
 public:
  /// \param uplink_rng  RNG for the in-flight uplink loss draw; nullopt
  ///        (with \p uplink_loss == 0) draws nothing — a faultless pull
  ///        run consumes zero randomness. When set, seed it from the
  ///        (client id, kUplink) fault sub-stream, never the master seed.
  PullClient(des::Simulation* sim, PullServer* server,
             const PullParams& params, std::optional<Rng> uplink_rng,
             double uplink_loss);

  /// Engine-side constructor: requests flow through \p transport instead
  /// of a directly attached server. The uplink loss draw, if any, lives
  /// on the far side of the transport (the coordinator owns the
  /// per-client fault streams so draw order is canonical).
  PullClient(des::Simulation* sim, PullTransport transport,
             const PullParams& params);

  /// A cache miss for \p page is about to wait on the broadcast;
  /// \p scheduled_wait is the wait the push schedule promises. Sends an
  /// uplink request when that wait exceeds the threshold and no request
  /// is already outstanding.
  void MaybeRequest(PageId page, double now, double scheduled_wait);

  /// The fetch of \p page completed at \p now after \p wait slots,
  /// \p via_pull telling whether a pull slot (vs the push schedule)
  /// delivered it. Clears the outstanding request, cancels its timeout,
  /// and records latency accounting (\p measured gates the histograms to
  /// the measured phase; \p cold marks a slowest-disk fetch).
  void OnFetchDone(PageId page, double now, double wait, bool via_pull,
                   bool measured, bool cold);

  /// True while a request is outstanding (for tests).
  bool outstanding() const { return outstanding_; }

  /// The client crashed: its outstanding request (if any) is forgotten
  /// and the pending re-request timeout is cancelled. The request the
  /// server may still hold is orphaned — it was accounted at submission,
  /// so the uplink books (requests + re_requests == accepted + dropped)
  /// stay balanced, and its eventual service simply finds no waiter.
  void OnCrash();

 private:
  // One uplink send: admission, loss draw, enqueue.
  void SubmitOnce(PageId page, double now, bool re_request);

  // Arms the re-request timeout for the outstanding request.
  void ArmTimeout(double now);

  des::Simulation* sim_;
  PullTransport transport_;
  PullParams params_;
  std::optional<Rng> uplink_rng_;
  double uplink_loss_ = 0.0;

  bool outstanding_ = false;
  PageId outstanding_page_ = 0;
  bool timeout_armed_ = false;
  des::EventQueue::EventId timeout_event_ = 0;
};

}  // namespace bcast::pull

#endif  // BCAST_PULL_PULL_CLIENT_H_
