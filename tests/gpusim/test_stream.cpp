// Stream/event semantics of the simulated async runtime: FIFO ordering,
// cross-stream event edges, synchronize draining and error recovery,
// default-stream inline semantics, op-timeline records, and the
// racecheck happens-before model across streams (a missing Event::wait
// between dependent launches is a reportable race).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "szp/gpusim/device.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/gpusim/stream.hpp"
#include "szp/gpusim/view.hpp"

namespace szp::gpusim {
namespace {

using sanitize::Kind;
using sanitize::Tools;

Tools racecheck_only() {
  Tools t;
  t.racecheck = true;
  return t;
}

TEST(Stream, FifoOrderOnOneStream) {
  Device dev(1);
  Stream s(dev, "fifo");
  std::vector<int> order;  // touched only by the stream thread, then sync
  for (int i = 0; i < 64; ++i) {
    s.host_task("append", [&order, i] { order.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(Stream, OpsRunOffTheCallersThread) {
  Device dev(1);
  Stream s(dev);
  std::thread::id op_tid;
  s.host_task("who", [&] { op_tid = std::this_thread::get_id(); });
  s.synchronize();
  EXPECT_NE(op_tid, std::this_thread::get_id());
  EXPECT_TRUE(s.idle());
}

TEST(Stream, AsyncCopyLaunchCopyMatchesSyncPath) {
  const size_t n = 256;
  std::vector<float> src(n);
  for (size_t i = 0; i < n; ++i) src[i] = static_cast<float>(i) * 0.5f;

  Device dev(2);
  DeviceBuffer<float> a(dev, n);
  DeviceBuffer<float> b(dev, n);
  std::vector<float> got(n, -1.0f);
  {
    Stream s(dev, "roundtrip");
    s.memcpy_h2d(a, std::span<const float>(src));
    s.launch("double_kernel", 4, [&](const BlockCtx& ctx) {
      const auto in = device_view(std::as_const(a), ctx);
      const auto out = device_view(b, ctx);
      const size_t per = n / ctx.grid_blocks;
      for (size_t i = ctx.block_idx * per; i < (ctx.block_idx + 1) * per; ++i) {
        out.store(i, in.load(i) * 2.0f);
      }
    });
    s.memcpy_d2h(std::span<float>(got), b, n);
    s.synchronize();
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], src[i] * 2.0f) << i;
  // FIFO made the h2d -> kernel -> d2h chain behave exactly like the
  // synchronous API; the device counters agree.
  const auto t = dev.snapshot();
  EXPECT_EQ(t.h2d_bytes, n * sizeof(float));
  EXPECT_EQ(t.d2h_bytes, n * sizeof(float));
  EXPECT_EQ(t.kernel_launches, 1u);
}

TEST(Event, CrossStreamEdgeOrdersWork) {
  Device dev(1);
  Stream prod(dev, "producer");
  Stream cons(dev, "consumer");
  std::atomic<int> value{0};
  prod.host_task("produce", [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    value.store(42, std::memory_order_release);
  });
  Event ev;
  prod.record(ev);
  cons.wait(ev);
  int seen = -1;
  cons.host_task("consume",
                 [&] { seen = value.load(std::memory_order_acquire); });
  cons.synchronize();
  EXPECT_EQ(seen, 42);  // the wait held the consumer until the record ran
  prod.synchronize();
}

TEST(Event, NeverRecordedIsCompleteAndWaitIsNoOp) {
  Event ev;
  EXPECT_TRUE(ev.query());
  ev.synchronize();  // no-op, returns immediately

  Device dev(1);
  Stream s(dev);
  s.wait(ev);  // never recorded: no-op, like cudaStreamWaitEvent
  bool ran = false;
  s.host_task("go", [&] { ran = true; });
  s.synchronize();
  EXPECT_TRUE(ran);

  s.record(ev);
  s.synchronize();
  EXPECT_TRUE(ev.query());
  ev.synchronize();
}

TEST(Stream, SynchronizeRethrowsFirstErrorThenStreamIsReusable) {
  Device dev(1);
  Stream s(dev);
  std::atomic<int> ran{0};
  s.host_task("boom", [] { throw format_error("boom"); });
  s.host_task("skipped", [&] { ran.fetch_add(1); });  // poisoned: skipped
  EXPECT_THROW(s.synchronize(), format_error);
  EXPECT_EQ(ran.load(), 0);
  // The error was observed; the stream accepts and runs new work.
  s.host_task("after", [&] { ran.fetch_add(1); });
  s.synchronize();
  EXPECT_EQ(ran.load(), 1);
}

TEST(Stream, PoisonedStreamStillCompletesEventRecords) {
  Device dev(1);
  Stream a(dev, "bad");
  Stream b(dev, "waiter");
  a.host_task("boom", [] { throw format_error("boom"); });
  Event ev;
  a.record(ev);  // after the poisoning op — must still complete
  b.wait(ev);
  std::atomic<bool> ran{false};
  b.host_task("go", [&] { ran.store(true); });
  b.synchronize();  // would deadlock if the record were skipped
  EXPECT_TRUE(ran.load());
  EXPECT_THROW(a.synchronize(), format_error);
}

TEST(Device, SynchronizeDrainsEveryStreamAndRethrows) {
  Device dev(1);
  Stream a(dev);
  Stream b(dev);
  std::atomic<int> n{0};
  a.host_task("x", [&] { n.fetch_add(1); });
  b.host_task("y", [&] { n.fetch_add(1); });
  dev.synchronize();
  EXPECT_EQ(n.load(), 2);
  EXPECT_EQ(dev.async_ops_pending(), 0u);
  a.host_task("err", [] { throw format_error("bad"); });
  EXPECT_THROW(dev.synchronize(), format_error);
}

TEST(Device, SynchronizeLeavesNoPendingOpsEveryTime) {
  // A stream thread must retire the device-wide pending count before it
  // publishes the completion that wakes synchronize(); otherwise the count
  // can still read nonzero right after synchronize() returns.
  Device dev(1);
  Stream a(dev);
  Stream b(dev);
  std::atomic<int> n{0};
  for (int i = 0; i < 300; ++i) {
    a.host_task("x", [&] { n.fetch_add(1); });
    b.host_task("y", [&] { n.fetch_add(1); });
    dev.synchronize();
    ASSERT_EQ(dev.async_ops_pending(), 0u) << "iteration " << i;
  }
  EXPECT_EQ(n.load(), 600);
}

TEST(Device, SnapshotThrowsWhileAsyncOpsPending) {
  Device dev(1);
  Stream s(dev);
  std::atomic<bool> release{false};
  s.host_task("gate", [&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // The op is submitted and not retired: the counters are not quiescent.
  EXPECT_THROW((void)dev.snapshot(), std::logic_error);
  EXPECT_THROW(dev.reset_trace(), std::logic_error);
  release.store(true);
  s.synchronize();
  (void)dev.snapshot();  // quiescent again
}

TEST(Stream, DefaultStreamIsInlineAndSynchronous) {
  Device dev(1);
  std::thread::id op_tid;
  dev.default_stream().host_task("inline",
                                 [&] { op_tid = std::this_thread::get_id(); });
  EXPECT_EQ(op_tid, std::this_thread::get_id());
  // Exceptions surface at submission, exactly like the legacy sync API.
  EXPECT_THROW(
      dev.default_stream().host_task("x", [] { throw format_error("e"); }),
      format_error);
  dev.default_stream().synchronize();  // no retained error
  EXPECT_TRUE(dev.default_stream().idle());
}

TEST(Timeline, RecordsOpsWithLanesKindsAndPerOpTraces) {
  Device dev(1);
  dev.set_timeline_enabled(true);
  const size_t n = 16;
  DeviceBuffer<float> buf(dev, n);
  std::vector<float> host(n, 1.0f);
  Stream s(dev, "lane0");
  s.memcpy_h2d(buf, std::span<const float>(host));
  s.launch("tl_kernel", 2, [&](const BlockCtx& ctx) {
    const auto v = device_view(buf, ctx);
    const size_t per = n / ctx.grid_blocks;
    for (size_t i = ctx.block_idx * per; i < (ctx.block_idx + 1) * per; ++i) {
      v.store(i, 2.0f);
    }
  });
  s.host_task("ht", [] {});
  Event ev;
  s.record(ev);
  s.synchronize();
  dev.set_timeline_enabled(false);

  const auto tl = dev.timeline();
  ASSERT_EQ(tl.size(), 4u);
  EXPECT_EQ(tl[0].kind, OpKind::kMemcpyH2D);
  EXPECT_EQ(tl[1].kind, OpKind::kKernel);
  EXPECT_EQ(tl[2].kind, OpKind::kHostTask);
  EXPECT_EQ(tl[3].kind, OpKind::kEventRecord);
  for (size_t i = 0; i < tl.size(); ++i) {
    EXPECT_EQ(tl[i].stream, "lane0");
    EXPECT_GE(tl[i].t_end_ns, tl[i].t_begin_ns);
    if (i > 0) {
      EXPECT_GT(tl[i].seq, tl[i - 1].seq);
    }
  }
  EXPECT_EQ(tl[0].trace.h2d_bytes, n * sizeof(float));
  EXPECT_EQ(tl[1].trace.kernel_launches, 1u);
  EXPECT_EQ(tl[3].event_id, ev.id());

  dev.clear_timeline();
  EXPECT_TRUE(dev.timeline().empty());
}

// --- racecheck happens-before across streams ----------------------------

TEST(StreamRace, MissingEventEdgeBetweenStreamsIsReported) {
  Device dev(1, racecheck_only());
  DeviceBuffer<std::uint32_t> buf(dev, 32, 0u);
  {
    Stream a(dev, "writer");
    Stream b(dev, "reader");
    a.launch("race_writer", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(buf, ctx);
      for (size_t i = 0; i < 32; ++i) v.store(i, 7u);
    });
    // No record/wait edge: the reader's launch has no happens-before path
    // from the writer's, so every cell is an unordered cross-launch pair.
    b.launch("race_reader", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(std::as_const(buf), ctx);
      std::uint32_t sum = 0;
      for (size_t i = 0; i < 32; ++i) sum += v.load(i);
      (void)sum;
    });
    a.synchronize();
    b.synchronize();
  }
  const auto rep = dev.sanitize_report();
  EXPECT_GE(rep.count(Kind::kRace), 1u) << rep.to_string();
  dev.clear_sanitize_findings();
}

TEST(StreamRace, EventEdgeMakesTheSameScheduleClean) {
  Device dev(1, racecheck_only());
  DeviceBuffer<std::uint32_t> buf(dev, 32, 0u);
  {
    Stream a(dev, "writer");
    Stream b(dev, "reader");
    a.launch("ordered_writer", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(buf, ctx);
      for (size_t i = 0; i < 32; ++i) v.store(i, 7u);
    });
    Event done;
    a.record(done);
    b.wait(done);  // the happens-before edge the twin above is missing
    b.launch("ordered_reader", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(std::as_const(buf), ctx);
      std::uint32_t sum = 0;
      for (size_t i = 0; i < 32; ++i) sum += v.load(i);
      EXPECT_EQ(sum, 7u * 32u);
    });
    a.synchronize();
    b.synchronize();
  }
  const auto rep = dev.sanitize_report();
  EXPECT_EQ(rep.count(Kind::kRace), 0u) << rep.to_string();
  dev.clear_sanitize_findings();
}

TEST(StreamRace, StreamSynchronizeOrdersHostAgainstStreamWork) {
  Device dev(1, racecheck_only());
  DeviceBuffer<std::uint32_t> buf(dev, 8, 0u);
  {
    Stream a(dev, "writer");
    a.launch("sync_writer", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(buf, ctx);
      for (size_t i = 0; i < 8; ++i) v.store(i, 3u);
    });
    a.synchronize();
    // Host-side launch (default stream) after synchronize: ordered.
    launch(dev, "host_reader", 1, [&](const BlockCtx& ctx) {
      const auto v = device_view(std::as_const(buf), ctx);
      for (size_t i = 0; i < 8; ++i) EXPECT_EQ(v.load(i), 3u);
    });
  }
  const auto rep = dev.sanitize_report();
  EXPECT_EQ(rep.count(Kind::kRace), 0u) << rep.to_string();
  dev.clear_sanitize_findings();
}

}  // namespace
}  // namespace szp::gpusim
