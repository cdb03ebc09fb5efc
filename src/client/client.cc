#include "client/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/coding.h"
#include "util/env.h"

namespace lilsm {

namespace {

Status SocketError(const char* context, int err) {
  return Status::IOError(context, std::strerror(err));
}

// write(2) raises SIGPIPE if the server vanished; MSG_NOSIGNAL turns
// that into a plain EPIPE so the library never requires global signal
// configuration from its host process.
ssize_t SendNoSigpipe(int fd, const void* buf, size_t n) {
  return ::send(fd, buf, n, MSG_NOSIGNAL);
}

}  // namespace

Status Client::Connect(const std::string& socket_path,
                       std::unique_ptr<Client>* client) {
  client->reset();
  struct ::sockaddr_un addr;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long", socket_path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return SocketError("socket", errno);
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<struct ::sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    int err = errno;
    ::close(fd);
    return SocketError(("connect " + socket_path).c_str(), err);
  }
  client->reset(new Client(fd));
  return Status::OK();
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::RoundTrip(wire::MessageType request_type, const Slice& body,
                         wire::MessageType expected_response,
                         std::string* response) {
  if (fd_ < 0) return Status::IOError("client is closed");
  const uint32_t request_id = next_request_id_++;
  send_buf_.clear();
  wire::EncodeFrame(&send_buf_, request_type, request_id, body);
  Status s = FullyWrite(fd_, send_buf_.data(), send_buf_.size(),
                        &SendNoSigpipe);
  if (!s.ok()) {
    Close();
    return s;
  }

  // Read the header, then the rest of the frame it declares; the length,
  // CRC and payload-shape checks are wire::DecodeFrame's, shared with the
  // server. Any failure loses the framing, so the connection closes.
  auto fail = [this](Status status) {
    Close();
    return status;
  };
  recv_buf_.resize(wire::kFrameHeaderBytes);
  size_t got = 0;
  s = FullyReadFd(fd_, recv_buf_.data(), recv_buf_.size(), &got);
  if (s.ok() && got < recv_buf_.size()) {
    s = Status::IOError("server closed the connection");
  }
  if (!s.ok()) return fail(s);
  wire::Frame frame;
  wire::DecodeResult result =
      wire::DecodeFrame(&recv_buf_, wire::kMaxPayloadBytes, &frame);
  if (result == wire::DecodeResult::kNeedMore) {
    const uint32_t payload_len = DecodeFixed32(recv_buf_.data());
    recv_buf_.resize(wire::kFrameHeaderBytes + payload_len);
    s = FullyReadFd(fd_, recv_buf_.data() + wire::kFrameHeaderBytes,
                    payload_len, &got);
    if (s.ok() && got < payload_len) {
      s = Status::IOError("server closed mid-frame");
    }
    if (!s.ok()) return fail(s);
    result = wire::DecodeFrame(&recv_buf_, wire::kMaxPayloadBytes, &frame);
  }
  if (result == wire::DecodeResult::kBadCrc) {
    return fail(Status::Corruption("response frame checksum mismatch"));
  }
  if (result != wire::DecodeResult::kFrame) {
    return fail(Status::Corruption("response frame length out of range"));
  }
  if (frame.request_id != request_id) {
    return fail(Status::Corruption("response for a different request"));
  }
  *response = std::move(frame.body);
  if (frame.type == wire::MessageType::kErrorResponse) {
    // The server refused the request outright (malformed frame body,
    // unknown type). It will close the connection; mirror that.
    wire::StatusResponse err;
    Close();
    if (!err.DecodeFrom(Slice(*response))) {
      return Status::Corruption("malformed error response");
    }
    return err.status.ok() ? Status::IOError("server rejected the request")
                           : err.status;
  }
  if (frame.type != expected_response) {
    return fail(Status::Corruption("unexpected response type"));
  }
  return Status::OK();
}

Status Client::Get(const ClientReadOptions& options, Key key,
                   std::string* value) {
  wire::GetRequest req;
  req.snapshot_id = options.snapshot_id;
  req.key = key;
  std::string body;
  req.EncodeTo(&body);
  std::string response;
  Status s = RoundTrip(wire::MessageType::kGetRequest, body,
                       wire::MessageType::kGetResponse, &response);
  if (!s.ok()) return s;
  wire::GetResponse resp;
  if (!resp.DecodeFrom(Slice(response))) {
    Close();
    return Status::Corruption("malformed get response");
  }
  if (resp.status.ok()) *value = std::move(resp.value);
  return resp.status;
}

Status Client::MultiGet(const ClientReadOptions& options,
                        std::span<const Key> keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  wire::MultiGetRequest req;
  req.snapshot_id = options.snapshot_id;
  req.keys.assign(keys.begin(), keys.end());
  std::string body;
  req.EncodeTo(&body);
  std::string response;
  Status s = RoundTrip(wire::MessageType::kMultiGetRequest, body,
                       wire::MessageType::kMultiGetResponse, &response);
  if (!s.ok()) return s;
  wire::MultiGetResponse resp;
  if (!resp.DecodeFrom(Slice(response)) ||
      (resp.status.ok() && resp.statuses.size() != keys.size())) {
    Close();
    return Status::Corruption("malformed multiget response");
  }
  *values = std::move(resp.values);
  *statuses = std::move(resp.statuses);
  return resp.status;
}

Status Client::Write(const ClientWriteOptions& options,
                     const WriteBatch& batch) {
  wire::WriteRequest req;
  req.sync = options.sync;
  req.disable_wal = options.disable_wal;
  const Slice contents = batch.Contents();
  req.batch_rep.assign(contents.data(), contents.size());
  std::string body;
  req.EncodeTo(&body);
  std::string response;
  Status s = RoundTrip(wire::MessageType::kWriteRequest, body,
                       wire::MessageType::kWriteResponse, &response);
  if (!s.ok()) return s;
  wire::StatusResponse resp;
  if (!resp.DecodeFrom(Slice(response))) {
    Close();
    return Status::Corruption("malformed write response");
  }
  return resp.status;
}

Status Client::Put(const ClientWriteOptions& options, Key key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, batch);
}

Status Client::Delete(const ClientWriteOptions& options, Key key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, batch);
}

Status Client::NewSnapshot(uint64_t* snapshot_id, SequenceNumber* sequence) {
  std::string response;
  Status s = RoundTrip(wire::MessageType::kNewSnapshotRequest, Slice(),
                       wire::MessageType::kNewSnapshotResponse, &response);
  if (!s.ok()) return s;
  wire::NewSnapshotResponse resp;
  if (!resp.DecodeFrom(Slice(response))) {
    Close();
    return Status::Corruption("malformed snapshot response");
  }
  if (resp.status.ok()) {
    *snapshot_id = resp.snapshot_id;
    if (sequence != nullptr) *sequence = resp.sequence;
  }
  return resp.status;
}

Status Client::ReleaseSnapshot(uint64_t snapshot_id) {
  wire::ReleaseSnapshotRequest req;
  req.snapshot_id = snapshot_id;
  std::string body;
  req.EncodeTo(&body);
  std::string response;
  Status s = RoundTrip(wire::MessageType::kReleaseSnapshotRequest, body,
                       wire::MessageType::kReleaseSnapshotResponse, &response);
  if (!s.ok()) return s;
  wire::StatusResponse resp;
  if (!resp.DecodeFrom(Slice(response))) {
    Close();
    return Status::Corruption("malformed release response");
  }
  return resp.status;
}

Status Client::Ping() {
  std::string response;
  Status s = RoundTrip(wire::MessageType::kPingRequest, Slice(),
                       wire::MessageType::kPingResponse, &response);
  if (!s.ok()) return s;
  wire::StatusResponse resp;
  if (!resp.DecodeFrom(Slice(response))) {
    Close();
    return Status::Corruption("malformed ping response");
  }
  return resp.status;
}

}  // namespace lilsm
