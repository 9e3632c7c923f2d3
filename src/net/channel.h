// In-memory line-oriented connection.
//
// Stands in for a TCP connection between a client (the attacker or a
// legitimate user agent) and a server under test. Both mini-Sendmail's SMTP
// dialogue and the Frontend (src/net/frontend.h) drive servers through one
// of these.
//
// Each direction has explicit close/EOF semantics: a closed direction with
// drained queue is end-of-stream, which ServerReceiveLine/ClientReceiveLine
// report distinctly from "no input yet" — the Frontend needs the difference
// to know when a multiplexed client is finished rather than merely idle.

#ifndef SRC_NET_CHANNEL_H_
#define SRC_NET_CHANNEL_H_

#include <deque>
#include <string>
#include <vector>

namespace fob {

class LineChannel {
 public:
  enum class RecvStatus {
    kLine,     // a line was received
    kNoInput,  // nothing queued, but the peer may still send
    kClosed,   // the peer closed and everything queued has been drained
  };
  struct Recv {
    RecvStatus status = RecvStatus::kNoInput;
    std::string line;

    bool has_line() const { return status == RecvStatus::kLine; }
    bool closed() const { return status == RecvStatus::kClosed; }
  };

  // ---- Client -> server direction ----------------------------------------

  // Sending on a closed direction is a dropped packet (the connection is
  // gone), matching what a real half-closed socket would do to the writer.
  void ClientSend(std::string line) {
    if (!client_closed_) {
      to_server_.push_back(std::move(line));
    }
  }
  // Half-close: no more client lines. Queued lines remain receivable; the
  // server sees kClosed only after draining them.
  void ClientClose() { client_closed_ = true; }
  bool client_closed() const { return client_closed_; }

  Recv ServerReceiveLine() {
    if (to_server_.empty()) {
      return Recv{client_closed_ ? RecvStatus::kClosed : RecvStatus::kNoInput, {}};
    }
    Recv recv{RecvStatus::kLine, std::move(to_server_.front())};
    to_server_.pop_front();
    return recv;
  }
  bool ServerHasInput() const { return !to_server_.empty(); }
  // End-of-stream from the server's perspective: closed and drained.
  bool ServerAtEof() const { return client_closed_ && to_server_.empty(); }

  // ---- Server -> client direction ----------------------------------------

  void ServerSend(std::string line) {
    if (!server_closed_) {
      to_client_.push_back(std::move(line));
    }
  }
  void ServerClose() { server_closed_ = true; }
  bool server_closed() const { return server_closed_; }

  Recv ClientReceiveLine() {
    if (to_client_.empty()) {
      return Recv{server_closed_ ? RecvStatus::kClosed : RecvStatus::kNoInput, {}};
    }
    Recv recv{RecvStatus::kLine, std::move(to_client_.front())};
    to_client_.pop_front();
    return recv;
  }
  std::vector<std::string> ClientReceiveAll() {
    std::vector<std::string> lines(to_client_.begin(), to_client_.end());
    to_client_.clear();
    return lines;
  }
  bool ClientAtEof() const { return server_closed_ && to_client_.empty(); }

 private:
  std::deque<std::string> to_server_;
  std::deque<std::string> to_client_;
  bool client_closed_ = false;
  bool server_closed_ = false;
};

}  // namespace fob

#endif  // SRC_NET_CHANNEL_H_
