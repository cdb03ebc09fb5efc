// lilsm::Client: the thin handle side of the host/handle split — a
// blocking unix-domain-socket connection to a lilsm_server, speaking the
// batch-first wire protocol (server/wire_protocol.h). One round trip
// carries a whole MultiGet key batch or a whole WriteBatch, so the
// network layer amplifies the engine's batching instead of erasing it.
//
// A Client is NOT thread-safe: it is one socket with one outstanding
// request at a time (the server preserves per-connection order). Use one
// Client per thread; connections are cheap.
#ifndef LILSM_CLIENT_CLIENT_H_
#define LILSM_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "lsm/write_batch.h"
#include "server/wire_protocol.h"
#include "util/status.h"

namespace lilsm {

/// Per-call options for Client reads. snapshot_id 0 (default) reads the
/// latest state; a nonzero id must come from NewSnapshot on this same
/// client (snapshots are connection-scoped server state and die with the
/// connection).
struct ClientReadOptions {
  uint64_t snapshot_id = 0;
};

/// Per-call options for Client writes, mirroring WriteOptions.
struct ClientWriteOptions {
  std::optional<bool> sync;
  bool disable_wal = false;
};

class Client {
 public:
  /// Connects to the server listening at `socket_path`.
  static Status Connect(const std::string& socket_path,
                        std::unique_ptr<Client>* client);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Point lookup; NotFound if absent or deleted — the same contract as
  /// DB::Get, one frame each way.
  Status Get(const ClientReadOptions& options, Key key, std::string* value);
  Status Get(Key key, std::string* value) {
    return Get(ClientReadOptions(), key, value);
  }

  /// Batched point lookup: the whole batch travels as one frame and is
  /// served by one DB::MultiGet against a single pinned view, so results
  /// are bit-identical to the in-process call. statuses->at(i) mirrors
  /// the per-key DB outcome; the return is the batch-level status.
  Status MultiGet(const ClientReadOptions& options, std::span<const Key> keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses);
  Status MultiGet(std::span<const Key> keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) {
    return MultiGet(ClientReadOptions(), keys, values, statuses);
  }

  /// Applies the batch atomically on the server (one frame carries the
  /// whole batch; concurrent clients' batches merge in the server DB's
  /// group-commit queue). The batch is not cleared.
  Status Write(const ClientWriteOptions& options, const WriteBatch& batch);
  Status Write(const WriteBatch& batch) {
    return Write(ClientWriteOptions(), batch);
  }

  // Single-update conveniences (one-record batches).
  Status Put(const ClientWriteOptions& options, Key key, const Slice& value);
  Status Put(Key key, const Slice& value) {
    return Put(ClientWriteOptions(), key, value);
  }
  Status Delete(const ClientWriteOptions& options, Key key);
  Status Delete(Key key) { return Delete(ClientWriteOptions(), key); }

  /// Pins a point-in-time view on the server. *snapshot_id names it in
  /// later ClientReadOptions; *sequence (optional) reports its
  /// visibility horizon. The server releases it on ReleaseSnapshot or —
  /// if the client disconnects or dies — when the connection closes.
  Status NewSnapshot(uint64_t* snapshot_id,
                     SequenceNumber* sequence = nullptr);
  Status ReleaseSnapshot(uint64_t snapshot_id);

  /// Round-trip liveness probe.
  Status Ping();

  /// Closes the socket. Further calls return IOError; the destructor
  /// also closes.
  void Close();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Sends one request frame and reads the matching response frame,
  /// verifying CRC, echoed request id, and expected type (accepting
  /// kErrorResponse anywhere, surfaced as its carried status).
  Status RoundTrip(wire::MessageType request_type, const Slice& body,
                   wire::MessageType expected_response, std::string* response);

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  std::string send_buf_;
  std::string recv_buf_;
};

}  // namespace lilsm

#endif  // LILSM_CLIENT_CLIENT_H_
