#ifndef SOFTDB_SERVER_DISPATCHER_H_
#define SOFTDB_SERVER_DISPATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "engine/softdb.h"
#include "server/server_options.h"

namespace softdb {

class Session;

/// Admission-controlled statement dispatcher with caller-runs execution: a
/// bounded priority queue in front of `worker_threads` statement slots, all
/// executing against one shared SoftDb (DESIGN.md §15). The dispatcher owns
/// no threads. An admitted statement that finds a free slot runs on the
/// calling (client) thread; otherwise it waits in the queue until a
/// finishing statement grants it a slot, then runs on its own thread.
///
/// Robustness semantics:
///   - Admission control: the queue is bounded at max_queue_depth and a
///     rejection is typed kResourceExhausted with {queue_depth,
///     retry_after_ms} details — clients classify by code + detail, never
///     by message prose.
///   - Load shedding + backpressure: at high_water_depth the dispatcher
///     evicts the lowest-priority queued request to admit strictly
///     higher-priority work (victims complete with {shed=1}), and tightens
///     admitted statements' effective deadlines to overload_deadline_ms so
///     queued work can never wait longer than it may run.
///   - Deadline-aware queueing: a statement whose deadline is already
///     unsatisfiable is rejected at admission, and one whose deadline
///     expires while queued is completed with kDeadlineExceeded when its
///     slot is granted — it is never executed doomed.
///   - Graceful drain: Drain() stops admissions, rejects queued work,
///     gives in-flight statements drain_deadline_ms to finish, cancels
///     stragglers through their cancellation tokens, then checkpoints the
///     WAL so a drained server restarts from a checkpoint. The engine
///     stays recoverable via SoftDb::Recover if the process dies mid-serve
///     instead.
///
/// Failpoint sites: server.admit (typed rejection), server.dequeue
/// (transient, retryable), server.session_execute (transient before the
/// engine runs the statement), server.drain (action-only hook).
class Dispatcher {
 public:
  Dispatcher(SoftDb* db, ServerOptions options);
  /// Closes admissions, rejects queued work, cancels in-flight statements
  /// and returns once their callers have released their slots. No
  /// checkpoint: that is Drain()'s contract.
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Admits and executes one statement on behalf of `session` on the
  /// calling (client) thread, blocking while it waits for a slot. `caller`
  /// may carry the client's own deadline/token; the effective context also
  /// honors session priority and the server deadline knobs. Single
  /// attempt: the retry loop lives in Session::Execute.
  Result<QueryResult> Execute(Session* session, const std::string& sql,
                              const QueryContext* caller);

  /// Graceful drain (see class comment). Idempotent: concurrent and
  /// repeated calls wait for the first drain and return its result.
  Status Drain();

  bool draining() const {
    std::lock_guard<std::mutex> lk(mu_);
    return draining_;
  }

  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }

  std::size_t in_flight() const {
    std::lock_guard<std::mutex> lk(mu_);
    return running_.size();
  }

  ServerStats& stats() { return stats_; }
  const ServerOptions& options() const { return options_; }
  SoftDb* db() { return db_; }

  /// Test hooks: stop/resume granting slots so admission-control and
  /// queue-state assertions are deterministic. While paused, admitted
  /// statements queue; running ones finish.
  void PauseWorkers();
  void ResumeWorkers();

 private:
  /// One admitted (or rejected-after-shed) statement. Its client blocks on
  /// `cv` until the request is granted a slot or completed by shedding or
  /// drain.
  struct Request {
    int priority = 0;
    std::uint64_t seq = 0;  // FIFO tiebreak within a priority.
    QueryContext ctx;       // Effective context; owns token for the run.
    std::chrono::steady_clock::time_point enqueued_at{};

    std::mutex mu;
    std::condition_variable cv;
    bool granted = false;  // Holds a slot; the client runs the statement.
    bool done = false;     // Completed without running; see `result`.
    std::optional<Result<QueryResult>> result;
  };
  using RequestPtr = std::shared_ptr<Request>;

  /// Runs one statement that holds a slot (deadline triage, failpoints,
  /// engine execution) on the calling thread.
  Result<QueryResult> ServeRequest(const Request& req, const std::string& sql);
  /// Gives up `req`'s slot and grants freed slots to the best waiters.
  void Release(const RequestPtr& req);
  /// Moves the best waiters into free slots while not paused. Requires mu_
  /// held; the caller wakes the returned requests after unlocking.
  std::vector<RequestPtr> GrantLocked();
  /// Marks each request granted and wakes its client.
  static void Wake(const std::vector<RequestPtr>& granted);
  /// Completes a request that will not run and wakes its client.
  static void Complete(const RequestPtr& req, Result<QueryResult> result);
  /// Picks the next waiter to grant: highest priority, then lowest seq.
  /// Requires mu_ held and a non-empty queue.
  std::list<RequestPtr>::iterator BestLocked();
  /// Sheds the lowest-priority queued request strictly below
  /// `incoming_priority` (newest victim among equals). Requires mu_ held;
  /// returns the victim (already removed) or null.
  RequestPtr ShedVictimLocked(int incoming_priority);
  /// Builds the effective QueryContext for a statement: caller token,
  /// else session token, else a fresh one (so drain can always cancel),
  /// with the caller deadline tightened by the server default. No lock.
  QueryContext EffectiveContext(const QueryContext* caller,
                                Session* session) const;
  /// Rejects every queued request with {draining=1}, cancels statements
  /// still running after `grace`, and returns once every slot is free.
  /// Requires draining_.
  void CloseAndWait(const char* reason, std::chrono::milliseconds grace);
  Status DrainLocked();  // The single-drain body; called by Drain().

  SoftDb* db_;
  const ServerOptions options_;
  const std::size_t slots_;  // max(1, worker_threads).
  ServerStats stats_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;   // Drain waits for running_ empty.
  std::list<RequestPtr> queue_;       // Admitted, waiting for a slot.
  std::vector<RequestPtr> running_;   // Holding a slot.
  std::uint64_t next_seq_ = 0;
  bool paused_ = false;
  bool draining_ = false;   // Admissions closed.
  bool drained_ = false;    // Drain completed (drain_status_ valid).
  Status drain_status_;
  std::condition_variable drain_cv_;  // Later Drain() callers wait here.
};

}  // namespace softdb

#endif  // SOFTDB_SERVER_DISPATCHER_H_
