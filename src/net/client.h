// pigeonring::net::Client — the blocking client library for the framed
// binary protocol (net/protocol.h).
//
// One Client owns one TCP connection and issues one request at a time
// (request/response, in order — the protocol has no interleaving). Every
// call returns Status / StatusOr: a typed error frame from the server
// decodes back into the Status the server-side op produced (including
// kResourceExhausted when the request was shed by admission control), and
// transport failures surface as kUnavailable / kDataLoss.
//
// Result ids round-trip exactly, so a client's Search / SearchBatch /
// SelfJoin ids are byte-comparable with an in-process api::Session over
// the same snapshot (pinned by the net_smoke test and by perfbench's
// answer-checked serve workload).
//
// Not thread-safe: one Client per caller thread, like api::Session.

#ifndef PIGEONRING_NET_CLIENT_H_
#define PIGEONRING_NET_CLIENT_H_

#include <string>
#include <vector>

#include "api/spec.h"
#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace pigeonring::net {

class Client {
 public:
  /// Connects to a running server (numeric IPv4 host). kUnavailable when
  /// nothing listens there.
  static StatusOr<Client> Connect(const std::string& host, int port);

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trip liveness probe.
  Status Ping();

  /// Single-query search over the server's current snapshot.
  StatusOr<SearchReply> Search(const api::Query& query);

  /// Batched search; result lists are in input order.
  StatusOr<BatchReply> SearchBatch(const std::vector<api::Query>& queries);

  /// Self-join of the server's dataset.
  StatusOr<JoinReply> SelfJoin();

  /// Inserts a record through the server's shared writer; returns the
  /// assigned id. Subsequent requests (on any connection) observe it.
  StatusOr<int> Insert(const api::Query& record);

  /// Removes record `id`; kNotFound is the server writer's typed no-op.
  Status Remove(int id);

  /// Folds pending mutations into a fresh epoch server-side.
  Status Compact();

  /// The server's counters and per-op latency digests.
  StatusOr<ServerStats> Stats();

  /// Record `id` of the server's dataset viewed as a query — the paper's
  /// sample-queries-from-the-dataset protocol, over the wire.
  StatusOr<api::Query> RecordQuery(int id);

  void Close() { socket_.Close(); }

 private:
  explicit Client(Socket socket) : socket_(std::move(socket)) {}

  /// Sends one request frame and decodes the matching reply: the payload
  /// on success, the transported Status on an error frame.
  StatusOr<std::vector<uint8_t>> RoundTrip(Op op,
                                           const std::vector<uint8_t>& payload);

  Socket socket_;
};

}  // namespace pigeonring::net

#endif  // PIGEONRING_NET_CLIENT_H_
