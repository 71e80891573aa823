// The TCP transport: a ppd Server listening on loopback TCP must serve the
// exact same bytes as its Unix socket and as a direct Session, survive torn
// frames (short reads/writes split at arbitrary byte boundaries, EOF
// mid-body, oversized frames) by poisoning only the offending connection,
// and the client must ignore nonsensical retry_after hints from a
// misconfigured peer. The endpoint grammar (UDS path vs HOST:PORT) is
// pinned here too — ppctl --connect and ppd --listen both ride on it.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "api/client.hpp"
#include "api/serve.hpp"
#include "base/strings.hpp"

namespace pp::api {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::string corun_spec(const char* name) {
  return strformat(R"({"version":1,"kind":"corun","name":"%s","flows":[{"type":"IP"}]})", name);
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pp_tcp_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    opts_.socket_path = dir_ + "/ppd.sock";
    opts_.listen_host = "127.0.0.1";
    opts_.listen_port = 0;  // kernel-chosen; tcp_port() reports it
    opts_.workers = 2;
    opts_.max_queue = 4;
    opts_.retry_after_ms = 2;
    opts_.max_frame_bytes = 1 << 16;
    opts_.session = SessionOptions::from_env();
    opts_.session.scale = Scale::kQuick;
    opts_.session.cache_dir = dir_ + "/cache";
    opts_.session.cache_dir_ro.clear();
    opts_.session.run_budget_ms = 0;
  }

  void TearDown() override {
    stop();
    std::filesystem::remove_all(dir_);
  }

  void start() {
    server_ = std::make_unique<Server>(opts_);
    std::string err;
    ASSERT_TRUE(server_->listen(&err)) << err;
    ASSERT_GT(server_->tcp_port(), 0) << "port 0 must resolve to a real bound port";
    serve_thread_ = std::thread([this] { serve_rc_ = server_->serve(); });
  }

  void stop() {
    if (server_ == nullptr) return;
    server_->begin_drain();
    if (serve_thread_.joinable()) serve_thread_.join();
    EXPECT_EQ(serve_rc_, 0) << "drain must exit 0";
    server_.reset();
  }

  [[nodiscard]] Client tcp_client(int retries = 3) {
    ClientOptions copts;
    copts.endpoint.host = "127.0.0.1";
    copts.endpoint.port = server_->tcp_port();
    copts.retries = retries;
    copts.retry_base_ms = 1;
    copts.retry_cap_ms = 4;
    copts.retry_seed = 1;
    return Client(copts);
  }

  [[nodiscard]] Client uds_client(int retries = 3) {
    ClientOptions copts;
    copts.endpoint.uds_path = opts_.socket_path;
    copts.retries = retries;
    copts.retry_base_ms = 1;
    copts.retry_cap_ms = 4;
    copts.retry_seed = 1;
    return Client(copts);
  }

  /// Raw TCP socket to the server — for speaking the protocol byte by byte.
  [[nodiscard]] int raw_connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server_->tcp_port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// One framed ppd1 request payload (envelope + body) as raw wire bytes.
  [[nodiscard]] static std::string wire_frame(const std::string& payload) {
    std::string out(kFrameMagic, 4);
    const auto len = static_cast<std::uint32_t>(payload.size());
    out.push_back(static_cast<char>((len >> 24) & 0xff));
    out.push_back(static_cast<char>((len >> 16) & 0xff));
    out.push_back(static_cast<char>((len >> 8) & 0xff));
    out.push_back(static_cast<char>(len & 0xff));
    out += payload;
    return out;
  }

  /// Read one whole response frame's payload off a raw socket ("" = EOF or
  /// a broken frame).
  [[nodiscard]] static std::string read_response(int fd) {
    std::string payload;
    Status st;
    if (read_frame(fd, payload, 1 << 20, st, FrameSide::kClient) != FrameRead::kOk) return "";
    return payload;
  }

  std::string dir_;
  ServerOptions opts_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  int serve_rc_ = -1;
};

TEST_F(TcpTransportTest, TcpAndUdsServeByteIdenticalResultsToADirectSession) {
  start();
  const std::string spec_json = corun_spec("identity");

  Client tcp = tcp_client();
  Reply tcp_reply;
  ASSERT_TRUE(tcp.run(spec_json, "text", 0, tcp_reply).ok());
  ASSERT_FALSE(tcp_reply.error.has_value());
  EXPECT_FALSE(tcp_reply.failed);

  Client uds = uds_client();
  Reply uds_reply;
  ASSERT_TRUE(uds.run(spec_json, "text", 0, uds_reply).ok());
  ASSERT_FALSE(uds_reply.error.has_value());
  EXPECT_EQ(tcp_reply.body, uds_reply.body) << "transports must not change the bytes";

  // Direct run, fresh store, same session options: the canonical bytes.
  SessionOptions direct = opts_.session;
  direct.cache_dir = dir_ + "/direct-cache";
  Session session(direct);
  const std::optional<ExperimentSpec> spec = ExperimentSpec::parse(spec_json);
  ASSERT_TRUE(spec.has_value());
  const Result r = session.run(*spec);
  ASSERT_TRUE(r.ok()) << r.error->detail;

  // Every format, from both transports, equals the direct run's renderer.
  const struct {
    const char* format;
    std::string direct;
  } formats[] = {{"text", r.to_text() + "\n"}, {"csv", r.to_csv()}, {"json", r.to_json()}};
  for (const auto& f : formats) {
    Reply a;
    Reply b;
    ASSERT_TRUE(tcp.run(spec_json, f.format, 0, a).ok());
    ASSERT_TRUE(uds.run(spec_json, f.format, 0, b).ok());
    EXPECT_EQ(a.body, f.direct) << "tcp " << f.format;
    EXPECT_EQ(b.body, f.direct) << "uds " << f.format;
  }

  // The TCP path hits the same warm store: a repeat simulates nothing.
  Reply warm;
  ASSERT_TRUE(tcp.run(spec_json, "text", 0, warm).ok());
  EXPECT_NE(warm.store_line.find("simulated=0 "), std::string::npos)
      << "warm TCP request must not simulate: " << warm.store_line;
  EXPECT_EQ(warm.body, tcp_reply.body);
}

TEST_F(TcpTransportTest, FramesTornAtArbitraryByteBoundariesStillParse) {
  start();
  const std::string payload =
      join_payload(R"({"op":"run","format":"text"})", corun_spec("torn"));
  const std::string wire = wire_frame(payload);

  // Dribble the request one byte at a time — every header and body read on
  // the server side is a short read. TCP_NODELAY + a tiny pause per byte
  // defeats coalescing for the first several reads, which is where the
  // magic/length parsing lives.
  const int fd = raw_connect();
  ASSERT_GE(fd, 0);
  for (const char b : wire) {
    ASSERT_EQ(::send(fd, &b, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(200us);
  }
  const std::string resp = read_response(fd);
  ::close(fd);
  ASSERT_FALSE(resp.empty());
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos) << resp;

  // Split exactly mid-magic and exactly mid-length too (boundary cases).
  for (const std::size_t cut : {std::size_t{2}, std::size_t{6}}) {
    const int fd2 = raw_connect();
    ASSERT_GE(fd2, 0);
    ASSERT_EQ(::send(fd2, wire.data(), cut, MSG_NOSIGNAL), static_cast<ssize_t>(cut));
    std::this_thread::sleep_for(5ms);
    ASSERT_EQ(::send(fd2, wire.data() + cut, wire.size() - cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size() - cut));
    const std::string r2 = read_response(fd2);
    ::close(fd2);
    EXPECT_NE(r2.find("\"ok\":true"), std::string::npos) << "cut at " << cut << ": " << r2;
  }
}

TEST_F(TcpTransportTest, EofMidFramePoisonsOnlyThatConnection) {
  start();
  const std::string payload =
      join_payload(R"({"op":"run","format":"text"})", corun_spec("eof"));
  const std::string wire = wire_frame(payload);

  // Hang up at several byte offsets: mid-magic, mid-length, mid-body. The
  // server must drop each connection without answering and stay healthy.
  for (const std::size_t cut : {std::size_t{2}, std::size_t{6}, wire.size() - 3}) {
    const int fd = raw_connect();
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, wire.data(), cut, MSG_NOSIGNAL), static_cast<ssize_t>(cut));
    ::close(fd);
  }

  // A well-formed request on a fresh connection still gets served.
  Client c = tcp_client();
  Reply reply;
  ASSERT_TRUE(c.run(corun_spec("eof"), "text", 0, reply).ok());
  EXPECT_FALSE(reply.error.has_value());
}

TEST_F(TcpTransportTest, OversizedFrameIsRejectedAndPoisonsOnlyThatConnection) {
  start();
  // Advertise a length over the server's max_frame_bytes ceiling; the
  // server must answer a protocol error and close — without reading the
  // (never-sent) body, and without disturbing a concurrent well-behaved
  // connection.
  std::string header(kFrameMagic, 4);
  const std::uint32_t huge = (1u << 16) + 1;
  header.push_back(static_cast<char>((huge >> 24) & 0xff));
  header.push_back(static_cast<char>((huge >> 16) & 0xff));
  header.push_back(static_cast<char>((huge >> 8) & 0xff));
  header.push_back(static_cast<char>(huge & 0xff));

  const int bad = raw_connect();
  ASSERT_GE(bad, 0);
  ASSERT_EQ(::send(bad, header.data(), header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));
  const std::string resp = read_response(bad);
  EXPECT_NE(resp.find("protocol_error"), std::string::npos) << resp;
  // The poisoned connection is closed server-side: the next read is EOF.
  char b = 0;
  EXPECT_EQ(::read(bad, &b, 1), 0);
  ::close(bad);

  EXPECT_GE(server_->stats().protocol_errors, 1u);

  Client c = tcp_client();
  Reply reply;
  ASSERT_TRUE(c.run(corun_spec("after-oversize"), "text", 0, reply).ok());
  EXPECT_FALSE(reply.error.has_value());
}

TEST_F(TcpTransportTest, BadMagicPoisonsTheConnectionWithAProtocolError) {
  start();
  const int fd = raw_connect();
  ASSERT_GE(fd, 0);
  const char junk[8] = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  ASSERT_EQ(::send(fd, junk, sizeof junk, MSG_NOSIGNAL), static_cast<ssize_t>(sizeof junk));
  const std::string resp = read_response(fd);
  EXPECT_NE(resp.find("protocol_error"), std::string::npos) << resp;
  ::close(fd);
}

// A fake daemon answering every request with a fixed envelope — for pinning
// client behavior against replies a real Server would never send.
class FakeDaemon {
 public:
  explicit FakeDaemon(std::string envelope) : envelope_(std::move(envelope)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    addr.sin_port = 0;
    (void)::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    (void)::listen(fd_, 4);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    (void)::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    thread_ = std::thread([this] {
      for (;;) {
        const int cfd = ::accept(fd_, nullptr, nullptr);
        if (cfd < 0) return;
        std::string payload;
        Status st;
        if (read_frame(cfd, payload, 1 << 20, st, FrameSide::kClient) == FrameRead::kOk) {
          (void)write_frame(cfd, envelope_, FrameSide::kClient);
        }
        ::close(cfd);
      }
    });
  }

  ~FakeDaemon() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] int port() const { return port_; }

 private:
  std::string envelope_;
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(ClientHintTest, NonPositiveRetryAfterHintIsTreatedAsAbsent) {
  for (const char* hint : {"-5", "0", "-0.5"}) {
    FakeDaemon daemon(strformat(
        R"({"ok":false,"retry_after_ms":%s,"error":{"kind":"overloaded","site":"serve.admit","detail":"x"}})",
        hint));
    ClientOptions copts;
    copts.endpoint.host = "127.0.0.1";
    copts.endpoint.port = daemon.port();
    copts.retries = 1;
    Client c(copts);
    Reply reply;
    const Status st = c.run(R"({"version":1,"kind":"corun","flows":[{"type":"IP"}]})", "text",
                            0, reply);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(reply.retry_after_ms, 0) << "hint " << hint << " must be dropped, not honored";
  }
}

TEST(ClientHintTest, AbsurdRetryAfterHintIsClampedNotOverflowed) {
  FakeDaemon daemon(
      R"({"ok":false,"retry_after_ms":1e18,"error":{"kind":"overloaded","site":"serve.admit","detail":"x"}})");
  ClientOptions copts;
  copts.endpoint.host = "127.0.0.1";
  copts.endpoint.port = daemon.port();
  copts.retries = 1;
  Client c(copts);
  Reply reply;
  EXPECT_FALSE(c.run(R"({"version":1,"kind":"corun","flows":[{"type":"IP"}]})", "text", 0,
                     reply)
                   .ok());
  EXPECT_EQ(reply.retry_after_ms, 3600000) << "cast of 1e18 to int would be UB without a clamp";
}

TEST(ServerOptionsTest, NormalizeClampsEveryKnobToItsSaneRange) {
  ServerOptions opts;
  opts.workers = 0;
  opts.max_queue = -5;
  opts.retry_after_ms = -3;
  opts.tcp_backlog = 0;
  opts.max_frame_bytes = 1;
  opts.normalize();
  EXPECT_EQ(opts.workers, 1) << "0 workers would hang admission forever";
  EXPECT_EQ(opts.max_queue, 0);
  EXPECT_EQ(opts.retry_after_ms, 0) << "negative hint folds to absent";
  EXPECT_EQ(opts.tcp_backlog, 1);
  EXPECT_EQ(opts.max_frame_bytes, 64u);
  opts.tcp_backlog = 100000;
  opts.normalize();
  EXPECT_EQ(opts.tcp_backlog, 4096);
}

TEST(EndpointTest, GrammarSplitsUdsPathsFromTcpHostPorts) {
  Endpoint ep;
  std::string err;
  ASSERT_TRUE(parse_endpoint("/tmp/ppd.sock", ep, err));
  EXPECT_FALSE(ep.is_tcp());
  EXPECT_EQ(ep.uds_path, "/tmp/ppd.sock");

  ASSERT_TRUE(parse_endpoint("127.0.0.1:8080", ep, err));
  EXPECT_TRUE(ep.is_tcp());
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 8080);
  EXPECT_EQ(ep.describe(), "127.0.0.1:8080");

  ASSERT_TRUE(parse_endpoint("localhost:99", ep, err));
  EXPECT_EQ(ep.host, "127.0.0.1") << "localhost resolves without DNS";

  ASSERT_TRUE(parse_endpoint(":7070", ep, err));
  EXPECT_EQ(ep.host, "127.0.0.1") << "empty host defaults to loopback";
}

TEST(EndpointTest, MalformedEndpointsAreNamedErrorsNeverSilentDefaults) {
  Endpoint ep;
  std::string err;
  EXPECT_FALSE(parse_endpoint("", ep, err));
  EXPECT_FALSE(parse_endpoint("127.0.0.1:abc", ep, err));
  EXPECT_NE(err.find("port"), std::string::npos) << err;
  EXPECT_FALSE(parse_endpoint("127.0.0.1:70000", ep, err)) << "out-of-range port";
  EXPECT_FALSE(parse_endpoint("127.0.0.1:-1", ep, err)) << "negative port";
  EXPECT_FALSE(parse_endpoint("127.0.0.1:2k", ep, err)) << "suffixed port must not scale";
  EXPECT_FALSE(parse_endpoint("not-an-ip:80", ep, err));
  EXPECT_NE(err.find("not-an-ip"), std::string::npos) << err;
  // Port 0 is listen-side only (kernel-chosen): rejected for connect.
  EXPECT_FALSE(parse_endpoint("127.0.0.1:0", ep, err));
  ASSERT_TRUE(parse_endpoint("127.0.0.1:0", ep, err, /*allow_ephemeral_port=*/true));
  EXPECT_EQ(ep.port, 0);
}

}  // namespace
}  // namespace pp::api
