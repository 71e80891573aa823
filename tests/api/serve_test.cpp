// The ppd Server's robustness envelope, exercised in-process over a real
// Unix-domain socket: byte-identical serving, warm-store reuse, in-flight
// dedup (across formats too), envelope deadline validation, bounded-queue
// shedding, wall-clock deadlines, per-connection poisoning of malformed
// frames, the serve.* fault sites, and graceful drain with an in-flight
// request. (Real-process lifecycle — SIGTERM, kill -9 + restart — lives in
// tests/serve/ppd_lifecycle_test.sh.)
#include "api/serve.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "base/fault.hpp"
#include "base/strings.hpp"

namespace pp::api {
namespace {

using namespace std::chrono_literals;

[[nodiscard]] std::string corun_spec(const char* name, const char* flows = R"([{"type":"IP"}])") {
  return strformat(R"({"version":1,"kind":"corun","name":"%s","flows":%s})", name, flows);
}

/// A spec that simulates long enough (hundreds of ms of host time at quick
/// scale, cold) to keep a worker slot occupied while the test races
/// something against it.
[[nodiscard]] std::string slow_spec(const char* name) {
  return strformat(
      R"({"version":1,"kind":"corun","name":"%s","measure_ms":4,"flows":[{"type":"MON"},{"type":"VPN"}]})",
      name);
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "pp_serve_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    opts_.socket_path = dir_ + "/ppd.sock";
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
    FaultInjector::global().reset();
    std::filesystem::remove_all(dir_);
  }

  void start() {
    server_ = std::make_unique<Server>(opts_);
    std::string err;
    ASSERT_TRUE(server_->listen(&err)) << err;
    serve_thread_ = std::thread([this] { serve_rc_ = server_->serve(); });
  }

  void stop() {
    if (server_ == nullptr) return;
    server_->begin_drain();
    if (serve_thread_.joinable()) serve_thread_.join();
    EXPECT_EQ(serve_rc_, 0) << "drain must exit 0";
    server_.reset();
  }

  [[nodiscard]] Client client(int retries = 3) {
    ClientOptions copts;
    copts.endpoint.uds_path = opts_.socket_path;
    copts.retries = retries;
    copts.retry_base_ms = 1;
    copts.retry_cap_ms = 4;
    copts.retry_seed = 1;
    return Client(copts);
  }

  /// Block until `n` requests are executing (a deterministic way to know a
  /// slow request actually holds a worker slot before racing against it).
  [[nodiscard]] bool wait_for_active(int n, std::chrono::milliseconds budget = 5000ms) {
    const auto until = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < until) {
      if (server_->stats().active >= n) return true;
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  /// Raw connected socket speaking (or abusing) the frame protocol.
  [[nodiscard]] int raw_connect() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opts_.socket_path.c_str(), opts_.socket_path.size());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  std::string dir_;
  ServerOptions opts_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  int serve_rc_ = -1;
};

TEST_F(ServeTest, ServesByteIdenticalToDirectSessionAndReusesTheWarmStore) {
  start();
  const std::string spec_json = corun_spec("identity");
  Client c = client();
  Reply reply;
  ASSERT_TRUE(c.run(spec_json, "text", 0, reply).ok());
  EXPECT_FALSE(reply.error.has_value());
  EXPECT_FALSE(reply.failed);
  EXPECT_EQ(reply.store_line.find("simulated=0 "), std::string::npos)
      << "cold request must simulate: " << reply.store_line;

  // The same spec executed directly (fresh store, same options) renders the
  // same bytes — the server added framing, not meaning.
  SessionOptions direct = opts_.session;
  direct.cache_dir = dir_ + "/direct-cache";
  Session session(direct);
  const std::optional<ExperimentSpec> spec = ExperimentSpec::parse(spec_json);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(reply.body, session.run(*spec).to_text() + "\n");

  // Second identical request: answered from the daemon's warm store.
  Reply warm;
  ASSERT_TRUE(c.run(spec_json, "text", 0, warm).ok());
  EXPECT_EQ(warm.body, reply.body);
  EXPECT_EQ(warm.store_line.find("simulated=0 "), 0U) << warm.store_line;

  // json/csv formats render through the same Result.
  Reply as_json;
  ASSERT_TRUE(c.run(spec_json, "json", 0, as_json).ok());
  EXPECT_EQ(as_json.body, session.run(*spec).to_json());
}

TEST_F(ServeTest, ArtifactsServeConcurrentlyAndMatchDirectSessionRuns) {
  // Default ServerOptions apart from where to listen and what to run:
  // artifact specs need no extra hook, run beside a generic spec, and reply
  // with exactly the bytes a direct Session::run renders.
  ServerOptions defaults;
  defaults.socket_path = opts_.socket_path;
  defaults.session = opts_.session;
  opts_ = defaults;
  start();

  const std::vector<std::string> specs = {
      R"({"version":1,"kind":"solo","artifact":"table1"})",
      R"({"version":1,"kind":"solo","artifact":"fig6"})", corun_spec("beside-artifacts")};
  std::vector<Reply> replies(specs.size());
  std::vector<Status> sts(specs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    threads.emplace_back([&, i] { sts[i] = client().run(specs[i], "text", 0, replies[i]); });
  }
  for (std::thread& t : threads) t.join();

  SessionOptions direct = opts_.session;
  direct.cache_dir = dir_ + "/direct-cache";
  Session session(direct);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(sts[i].ok()) << sts[i].detail;
    EXPECT_FALSE(replies[i].error.has_value()) << specs[i];
    EXPECT_FALSE(replies[i].failed) << specs[i];
    const std::optional<ExperimentSpec> spec = ExperimentSpec::parse(specs[i]);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(replies[i].body, render_result(session.run(*spec), "text")) << specs[i];
  }
  EXPECT_EQ(server_->stats().specs_ok, 3U);
}

TEST(LatencyHistogram, KeepsCountingPastTheOldSampleCap) {
  // `ppctl stat` used to freeze after 65,536 samples. The last 5,000 of
  // 70,000 samples are large; they must move count, p99 and max.
  LatencyHistogram h;
  for (int i = 0; i < 65000; ++i) h.record(100);
  for (int i = 0; i < 5000; ++i) h.record(500000);
  const std::string line = h.summary();
  EXPECT_NE(line.find("count=70000 "), std::string::npos) << line;
  EXPECT_NE(line.find(" max=500000"), std::string::npos) << line;
  unsigned long long p50 = 0;
  unsigned long long p90 = 0;
  unsigned long long p99 = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "count=%*u p50=%llu p90=%llu p99=%llu", &p50, &p90, &p99),
            3)
      << line;
  // A percentile is its bucket's upper bound: within 1/16 of the sample.
  EXPECT_GE(p50, 100U);
  EXPECT_LE(p50, 100U + 100U / 16);
  EXPECT_LE(p90, 100U + 100U / 16);
  EXPECT_GE(p99, 500000U - 500000U / 16) << line;
  EXPECT_LE(p99, 500000U);
}

TEST(LatencyHistogram, EmptyAndExactSmallValues) {
  LatencyHistogram h;
  EXPECT_EQ(h.summary(), "count=0 p50=0 p90=0 p99=0 max=0");
  for (std::uint64_t v = 0; v < 16; ++v) h.record(v);  // below 16 every value has a bucket
  EXPECT_EQ(h.summary(), "count=16 p50=8 p90=14 p99=15 max=15");
  h.record(~std::uint64_t{0});  // the top bucket holds the largest value
  EXPECT_NE(h.summary().find("max=18446744073709551615"), std::string::npos) << h.summary();
}

TEST_F(ServeTest, PingAndStatAnswerWithoutTouchingAdmission) {
  start();
  Client c = client();
  EXPECT_TRUE(c.ping().ok());
  std::string text;
  ASSERT_TRUE(c.stat(text).ok());
  EXPECT_NE(text.find("[ppd] requests: served="), std::string::npos);
  EXPECT_NE(text.find("[ppd] profile store: simulated="), std::string::npos);
  EXPECT_NE(text.find("ro_quarantine_warnings="), std::string::npos)
      << "daemon stat must reuse ProfileStore::stats_line verbatim";
  EXPECT_NE(text.find("[ppd] latency_us: count="), std::string::npos);
}

TEST_F(ServeTest, InvalidSpecFailsTheRequestNotTheConnection) {
  start();
  Client c = client();
  Reply bad;
  ASSERT_TRUE(c.run("{\"version\":99}", "text", 0, bad).ok());
  ASSERT_TRUE(bad.error.has_value());
  EXPECT_EQ(bad.error->kind, StatusKind::kInvalidSpec);

  Reply good;
  ASSERT_TRUE(c.run(corun_spec("after-bad"), "text", 0, good).ok());
  EXPECT_FALSE(good.error.has_value());
  EXPECT_FALSE(good.failed);

  const Server::Stats st = server_->stats();
  EXPECT_EQ(st.specs_failed, 1U);
  EXPECT_EQ(st.specs_ok, 1U);
  EXPECT_EQ(st.protocol_errors, 0U) << "a parseable request is never a protocol error";
}

TEST_F(ServeTest, MalformedFramePoisonsOnlyItsOwnConnection) {
  start();
  const int fd = raw_connect();
  ASSERT_GE(fd, 0);
  // Not a ppd1 frame at all.
  ASSERT_EQ(::write(fd, "GET / HTTP/1.1\r\n", 16), 16);
  // Best-effort protocol_error response, then the server closes this
  // connection for good.
  std::string payload;
  Status st;
  EXPECT_EQ(read_frame(fd, payload, opts_.max_frame_bytes, st), FrameRead::kOk);
  EXPECT_NE(payload.find("protocol_error"), std::string::npos);
  char byte = 0;
  // EOF, or ECONNRESET when the server closed with our extra bytes unread —
  // either way the connection is dead.
  EXPECT_LE(::read(fd, &byte, 1), 0) << "poisoned connection must be closed";
  ::close(fd);

  // Concurrent well-behaved clients are untouched.
  Client c = client();
  Reply reply;
  ASSERT_TRUE(c.run(corun_spec("after-poison"), "text", 0, reply).ok());
  EXPECT_FALSE(reply.failed);
  EXPECT_GE(server_->stats().protocol_errors, 1U);
}

TEST_F(ServeTest, OversizedFramePoisonsTheConnection) {
  start();
  const int fd = raw_connect();
  ASSERT_GE(fd, 0);
  // Valid magic, length far above the configured ceiling.
  const char header[8] = {'p', 'p', 'd', '1', 0x7f, 0, 0, 0};
  ASSERT_EQ(::write(fd, header, sizeof header), 8);
  std::string payload;
  Status st;
  EXPECT_EQ(read_frame(fd, payload, opts_.max_frame_bytes, st), FrameRead::kOk);
  EXPECT_NE(payload.find("protocol_error"), std::string::npos);
  EXPECT_NE(payload.find("ceiling"), std::string::npos);
  char byte = 0;
  EXPECT_LE(::read(fd, &byte, 1), 0);
  ::close(fd);
  EXPECT_GE(server_->stats().protocol_errors, 1U);
}

TEST_F(ServeTest, IdenticalInFlightRequestsAreSingleFlighted) {
  start();
  const std::string spec_json = slow_spec("dedup");
  Reply lead;
  Status lead_st;
  std::thread leader([&] {
    Client c = client();
    lead_st = c.run(spec_json, "text", 0, lead);
  });
  ASSERT_TRUE(wait_for_active(1)) << "leader never started executing";
  Reply follow;
  Client c = client();
  const Status follow_st = c.run(spec_json, "text", 0, follow);
  leader.join();
  ASSERT_TRUE(lead_st.ok());
  ASSERT_TRUE(follow_st.ok());
  EXPECT_EQ(lead.body, follow.body);
  const Server::Stats st = server_->stats();
  EXPECT_EQ(st.deduped_inflight, 1U);
  EXPECT_EQ(st.specs_ok, 1U) << "one execution served both requests";
}

TEST_F(ServeTest, CrossFormatFollowerRendersItsOwnFormatFromOneExecution) {
  // The flight key is the canonical spec plus the deadline, not the format:
  // a json request for a spec already executing as text waits for that
  // execution and renders its own bytes from the shared Result.
  start();
  const std::string spec_json = slow_spec("cross-format");
  Reply lead;
  Status lead_st;
  std::thread leader([&] {
    Client c = client();
    lead_st = c.run(spec_json, "text", 0, lead);
  });
  ASSERT_TRUE(wait_for_active(1)) << "leader never started executing";
  Reply follow;
  Client c = client();
  const Status follow_st = c.run(spec_json, "json", 0, follow);
  leader.join();
  ASSERT_TRUE(lead_st.ok());
  ASSERT_TRUE(follow_st.ok());

  SessionOptions direct = opts_.session;
  direct.cache_dir = dir_ + "/direct-cache";
  Session session(direct);
  const std::optional<ExperimentSpec> spec = ExperimentSpec::parse(spec_json);
  ASSERT_TRUE(spec.has_value());
  const Result want = session.run(*spec);
  EXPECT_EQ(lead.body, render_result(want, "text"));
  EXPECT_EQ(follow.body, render_result(want, "json"));
  const Server::Stats st = server_->stats();
  EXPECT_EQ(st.deduped_inflight, 1U);
  EXPECT_EQ(st.specs_ok, 1U) << "one execution served both formats";
}

TEST_F(ServeTest, OutOfRangeDeadlineIsAnInvalidRequestAndKeepsTheConnection) {
  // A deadline beyond int64 nanoseconds (1e300), a negative one and a
  // non-number each get a structured invalid_spec answer, and the same
  // connection keeps serving.
  start();
  const int fd = raw_connect();
  ASSERT_GE(fd, 0);
  for (const char* deadline : {"1e300", "-5", "\"soon\""}) {
    const std::string envelope =
        strformat(R"({"op":"run","format":"text","deadline_ms":%s})", deadline);
    ASSERT_TRUE(write_frame(fd, join_payload(envelope, corun_spec("bad-deadline"))).ok());
    std::string payload;
    Status st;
    ASSERT_EQ(read_frame(fd, payload, opts_.max_frame_bytes, st), FrameRead::kOk) << deadline;
    EXPECT_NE(payload.find("\"ok\":false"), std::string::npos) << deadline << ": " << payload;
    EXPECT_NE(payload.find("invalid_spec"), std::string::npos) << deadline << ": " << payload;
    EXPECT_NE(payload.find("serve.request"), std::string::npos) << deadline << ": " << payload;
  }
  ASSERT_TRUE(write_frame(fd, join_payload(R"({"op":"ping"})", "")).ok());
  std::string payload;
  Status st;
  ASSERT_EQ(read_frame(fd, payload, opts_.max_frame_bytes, st), FrameRead::kOk);
  EXPECT_EQ(payload.rfind(R"({"ok":true})", 0), 0U) << payload;
  ::close(fd);
  EXPECT_EQ(server_->stats().specs_failed, 3U);
  EXPECT_EQ(server_->stats().specs_ok, 0U);
}

TEST_F(ServeTest, FullQueueShedsWithRetryAfterHint) {
  opts_.workers = 1;
  opts_.max_queue = 0;
  start();
  Reply slow;
  Status slow_st;
  std::thread occupant([&] {
    Client c = client();
    slow_st = c.run(slow_spec("occupant"), "text", 0, slow);
  });
  ASSERT_TRUE(wait_for_active(1));
  // retries=1: surface the structured overloaded answer instead of retrying.
  Client c = client(/*retries=*/1);
  Reply shed;
  const Status st = c.run(corun_spec("shed-me"), "text", 0, shed);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.kind, StatusKind::kOverloaded);
  ASSERT_TRUE(shed.error.has_value());
  EXPECT_EQ(shed.error->kind, StatusKind::kOverloaded);
  EXPECT_EQ(shed.retry_after_ms, opts_.retry_after_ms);
  EXPECT_GE(server_->stats().shed, 1U);
  occupant.join();
  EXPECT_TRUE(slow_st.ok()) << "the occupant was never disturbed";
  EXPECT_FALSE(slow.failed);

  // With retries available the same client rides the backoff through the
  // overload and succeeds once the slot frees up.
  Client retrying = client(/*retries=*/10);
  Reply ok;
  ASSERT_TRUE(retrying.run(corun_spec("shed-me"), "text", 0, ok).ok());
  EXPECT_FALSE(ok.failed);
}

TEST_F(ServeTest, ExpiredDeadlineReturnsStructuredBudgetExceeded) {
  opts_.workers = 1;
  opts_.max_queue = 2;
  start();
  // Occupy the only worker so the deadlined request has to queue.
  Reply slow;
  Status slow_st;
  std::thread occupant([&] {
    Client c = client();
    slow_st = c.run(slow_spec("deadline-occupant"), "text", 0, slow);
  });
  ASSERT_TRUE(wait_for_active(1));
  Client c = client(/*retries=*/1);
  Reply late;
  // 1ms wall-clock budget: expires while queued (or, at worst, between
  // admission and the first scenario) — either way a structured
  // budget_exceeded result, never a hang.
  const Status st = c.run(corun_spec("too-late"), "text", /*deadline_ms=*/1, late);
  ASSERT_TRUE(st.ok()) << st.detail;
  EXPECT_TRUE(late.failed);
  EXPECT_NE(late.body.find("budget_exceeded"), std::string::npos) << late.body;
  occupant.join();
  ASSERT_TRUE(slow_st.ok());
  EXPECT_FALSE(slow.failed) << "the occupant's result is unaffected by the deadline refusal";
  EXPECT_GE(server_->stats().deadline_refused, 1U);
  EXPECT_EQ(server_->stats().shed, 0U) << "a queued deadline is not a shed";
}

TEST_F(ServeTest, ServeAcceptAndReadFaultsAreSurvivedByRetries) {
  start();
  ASSERT_TRUE(FaultInjector::global().configure("serve.accept:fail@1;serve.read:err@1"));
  // Attempt 1: the accepted connection is dropped before serving
  // (serve.accept), so the daemon never reaches a read. Attempt 2: the
  // first connection read fails (serve.read). Attempt 3 succeeds. The
  // client's own frame I/O never consults the injector, so only the daemon
  // side fails.
  Client c = client(/*retries=*/4);
  Reply reply;
  const Status st = c.run(corun_spec("faulted"), "text", 0, reply);
  ASSERT_TRUE(st.ok()) << st.detail;
  EXPECT_FALSE(reply.failed);
  EXPECT_EQ(c.slept_ms().size(), 2U) << "exactly two failed attempts";
}

TEST_F(ServeTest, ServeWriteFaultDropsTheResponseNotTheDaemon) {
  start();
  ASSERT_TRUE(FaultInjector::global().configure("serve.write:err@1"));
  Client c = client(/*retries=*/3);
  Reply reply;
  ASSERT_TRUE(c.run(corun_spec("write-fault"), "text", 0, reply).ok());
  EXPECT_FALSE(reply.failed);
  EXPECT_EQ(c.slept_ms().size(), 1U);
  // The failed write consumed the execution; the retry was a warm hit.
  EXPECT_EQ(reply.store_line.find("simulated=0 "), 0U) << reply.store_line;
}

TEST_F(ServeTest, ServeFrameFaultAnswersProtocolErrorAndHealsNextConnection) {
  start();
  ASSERT_TRUE(FaultInjector::global().configure("serve.frame:corrupt@1"));
  Client once = client(/*retries=*/1);
  Reply poisoned;
  const Status st = once.run(corun_spec("frame-fault"), "text", 0, poisoned);
  // The daemon saw a corrupted header: best-effort protocol_error response,
  // which the client reports as a definitive (non-retryable) refusal.
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(poisoned.error.has_value());
  EXPECT_EQ(poisoned.error->kind, StatusKind::kProtocolError);

  Client again = client(/*retries=*/1);
  Reply reply;
  ASSERT_TRUE(again.run(corun_spec("frame-fault"), "text", 0, reply).ok());
  EXPECT_FALSE(reply.error.has_value());
}

TEST_F(ServeTest, DrainFinishesInFlightWorkThenRefusesNewConnections) {
  start();
  Reply inflight;
  Status inflight_st;
  std::thread worker([&] {
    Client c = client();
    inflight_st = c.run(slow_spec("drain-me"), "text", 0, inflight);
  });
  ASSERT_TRUE(wait_for_active(1));
  stop();  // begin_drain + join; asserts serve() returned 0
  worker.join();
  ASSERT_TRUE(inflight_st.ok()) << "in-flight request must complete through drain: "
                                << inflight_st.detail;
  EXPECT_FALSE(inflight.failed);

  Client late = client(/*retries=*/2);
  Reply refused;
  const Status st = late.run(corun_spec("too-late"), "text", 0, refused);
  EXPECT_FALSE(st.ok()) << "drained daemon must not accept new work";
  EXPECT_EQ(st.site, "client.connect");
  EXPECT_FALSE(std::filesystem::exists(opts_.socket_path)) << "socket unlinked on drain";
}

}  // namespace
}  // namespace pp::api
