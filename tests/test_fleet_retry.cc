/**
 * @file
 * Deterministic unit tests of the fleet client's retry machinery
 * under a fake clock: backoff growth/cap/jitter, per-attempt
 * timeouts, hedged reads, deadline failure, duplicate suppression,
 * and quorum write acks. No servers here — the test scripts
 * placement and captures every request the client sends, then feeds
 * responses back at chosen virtual times.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fleet/client.h"
#include "fleet/retry.h"

using namespace citadel;
using namespace citadel::fleet;

namespace {

// ---- RetryPolicy ---------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministic)
{
    RetryPolicy p;
    p.seed = 42;
    for (u32 attempt = 1; attempt < 6; ++attempt)
        EXPECT_EQ(p.backoff(7, attempt), p.backoff(7, attempt));
    // Different ops decorrelate (not all equal across a small sweep).
    bool differs = false;
    for (u64 op = 0; op < 16 && !differs; ++op)
        differs = p.backoff(op, 3) != p.backoff(op + 1, 3);
    EXPECT_TRUE(differs);
}

TEST(RetryPolicy, BackoffJitterStaysInWindow)
{
    RetryPolicy p;
    p.backoffBase = 4;
    p.backoffCap = 256;
    p.seed = 99;
    for (u64 op = 0; op < 64; ++op) {
        for (u32 attempt = 1; attempt < 10; ++attempt) {
            u64 window = p.backoffBase << (attempt - 1);
            window = std::min(window, p.backoffCap);
            const u64 d = p.backoff(op, attempt);
            EXPECT_GE(d, window / 2) << "op " << op << " a " << attempt;
            EXPECT_LT(d, std::max<u64>(window, 1) + 1);
        }
    }
}

TEST(RetryPolicy, BackoffGrowsThenCaps)
{
    RetryPolicy p;
    p.backoffBase = 8;
    p.backoffCap = 64;
    p.seed = 5;
    // Window sequence: 8, 16, 32, 64, 64, ... jitter keeps delays in
    // [w/2, w), so attempt 10's delay is bounded by the cap.
    EXPECT_LT(p.backoff(3, 1), 8u);
    EXPECT_GE(p.backoff(3, 4), 32u);
    EXPECT_LT(p.backoff(3, 40), 64u);
    EXPECT_GE(p.backoff(3, 40), 32u);
}

TEST(RetryPolicy, HugeAttemptOrdinalDoesNotOverflow)
{
    RetryPolicy p;
    p.backoffCap = 1024;
    const u64 d = p.backoff(1, 200); // 4 << 199 would overflow.
    EXPECT_LT(d, 1024u);
}

// ---- Scripted client harness ---------------------------------------

/** Client sizing of every harness: keys are in [0, 64). */
constexpr ClientTuning kTuning{64};

/** Captures every request the client emits, with placement scripted
 *  by the test. */
struct Harness
{
    std::vector<ServerIdx> placement{0, 1};
    std::vector<std::pair<Request, ServerIdx>> sent;
    FleetClient client;

    explicit Harness(const RetryPolicy &p, u32 replication = 2,
                     u32 quorum = 2)
        : client(p, replication, quorum, /*valueSalt=*/77, kTuning)
    {
        client.connect(
            [this](u64, std::vector<ServerIdx> &out) {
                out = placement;
            },
            [this](const Request &r, ServerIdx s) {
                sent.emplace_back(r, s);
            });
    }

    Response okFor(std::size_t i) const
    {
        const auto &[req, server] = sent[i];
        Response resp;
        resp.op = req.op;
        resp.attempt = req.attempt;
        resp.replica = req.replica;
        resp.status = Status::Ok;
        resp.version = req.version;
        resp.value = req.value;
        resp.from = server;
        return resp;
    }
};

RetryPolicy
testPolicy()
{
    RetryPolicy p;
    p.attemptTimeout = 10;
    p.opDeadline = 200;
    p.backoffBase = 4;
    p.backoffCap = 32;
    p.maxAttempts = 4;
    p.hedgeAfter = 6;
    p.seed = 1234;
    return p;
}

TEST(FleetClient, ReadCompletesOnResponse)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, /*now=*/0);
    ASSERT_EQ(h.sent.size(), 1u);
    EXPECT_EQ(h.sent[0].second, 0u); // Primary first.
    h.client.onResponse(h.okFor(0), 2);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsAcked, 1u);
    EXPECT_EQ(h.client.counters().hedges, 0u);
}

TEST(FleetClient, ReadHedgesAfterHedgeDelay)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    // Just before the hedge delay: nothing new.
    for (u64 t = 1; t < 6; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.sent.size(), 1u);
    h.client.tick(6);
    ASSERT_EQ(h.sent.size(), 2u);
    EXPECT_EQ(h.sent[1].second, 1u); // Next replica.
    EXPECT_EQ(h.client.counters().hedges, 1u);

    // The hedge answers first: operation completes, hedgeWins counted.
    h.client.onResponse(h.okFor(1), 8);
    EXPECT_EQ(h.client.counters().opsAcked, 1u);
    EXPECT_EQ(h.client.counters().hedgeWins, 1u);
    // The primary's late answer is suppressed.
    h.client.onResponse(h.okFor(0), 9);
    EXPECT_EQ(h.client.counters().duplicatesSuppressed, 1u);
}

TEST(FleetClient, AttemptTimeoutBacksOffThenRetries)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    // Run past the attempt timeout (hedge fires on the way at t=6).
    for (u64 t = 1; t <= 10; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.client.counters().attemptTimeouts, 1u);
    EXPECT_EQ(h.client.counters().retries, 1u);
    const std::size_t before = h.sent.size();

    // The retry is delayed by backoff(op=1, attempt=1) in [2, 4).
    RetryPolicy p = testPolicy();
    const u64 delay = p.backoff(1, 1);
    EXPECT_GE(delay, 2u);
    EXPECT_LT(delay, 4u);
    for (u64 t = 11; t < 10 + delay; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.sent.size(), before); // Still backing off.
    h.client.tick(10 + delay);
    ASSERT_EQ(h.sent.size(), before + 1);
    // Second attempt rotates to the other replica.
    EXPECT_EQ(h.sent.back().second, 1u);
}

TEST(FleetClient, DeadlineFailsOperation)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    // No responses ever: the op must fail by its deadline, not hang.
    h.client.startRead(1, 50, 0);
    for (u64 t = 1; t <= 200; ++t)
        h.client.tick(t);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsFailed, 1u);
    EXPECT_EQ(h.client.counters().opsAcked, 0u);
    // Attempt budget respected: at most maxAttempts rounds, each of
    // which may add one hedge.
    EXPECT_LE(h.client.counters().attempts,
              2ull * testPolicy().maxAttempts);
    EXPECT_LE(h.client.counters().attemptTimeouts,
              static_cast<u64>(testPolicy().maxAttempts));
}

TEST(FleetClient, WriteFansOutAndAcksAtQuorum)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startWrite(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 2u); // One request per replica.
    EXPECT_EQ(h.sent[0].first.version, 1u);
    EXPECT_EQ(h.sent[0].first.value,
              FleetClient::valueFor(50, 1, 77));

    // First ack: no quorum yet.
    h.client.onResponse(h.okFor(0), 1);
    EXPECT_EQ(h.client.inflight(), 1u);
    EXPECT_EQ(h.client.counters().writesAcked, 0u);
    // Duplicate ack from the same server does not count twice.
    h.client.onResponse(h.okFor(0), 2);
    EXPECT_EQ(h.client.inflight(), 1u);
    // Second replica acks: quorum reached.
    h.client.onResponse(h.okFor(1), 3);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().writesAcked, 1u);
    std::vector<std::pair<u64, u64>> acked;
    h.client.forEachAcked(
        [&](u64 key, const FleetClient::AckedWrite &aw) {
            acked.emplace_back(key, aw.version);
        });
    EXPECT_EQ(acked, (std::vector<std::pair<u64, u64>>{{50, 1}}));
}

TEST(FleetClient, WriteRefanoutSkipsAckedReplicas)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startWrite(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 2u);
    h.client.onResponse(h.okFor(0), 1); // Replica 0 acked.

    // Attempt times out; after backoff the re-fan-out goes only to
    // the replica that has not acked.
    for (u64 t = 2; t <= 20; ++t)
        h.client.tick(t);
    ASSERT_GE(h.sent.size(), 3u);
    for (std::size_t i = 2; i < h.sent.size(); ++i)
        EXPECT_EQ(h.sent[i].second, 1u);
}

TEST(FleetClient, BusyTriggersBackoffNotInstantRetry)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    Response busy;
    busy.op = 1;
    busy.attempt = 0;
    busy.status = Status::Busy;
    busy.from = 0;
    h.client.onResponse(busy, 1);
    EXPECT_EQ(h.client.counters().busyRejections, 1u);
    EXPECT_EQ(h.sent.size(), 1u); // No same-tick hammering.
    EXPECT_EQ(h.client.counters().retries, 1u);
    for (u64 t = 2; t <= 8; ++t)
        h.client.tick(t);
    EXPECT_GE(h.sent.size(), 2u); // Retried after the backoff window.
}

TEST(FleetClient, ReadFailsOverImmediatelyOnDueData)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    ASSERT_EQ(h.sent.size(), 1u);
    Response due;
    due.op = 1;
    due.attempt = 0;
    due.status = Status::DueData;
    due.from = 0;
    h.client.onResponse(due, 1);
    // DUE at the primary is not a timeout: the client fails over to
    // the next replica in the same tick.
    ASSERT_EQ(h.sent.size(), 2u);
    EXPECT_EQ(h.sent[1].second, 1u);
    EXPECT_EQ(h.client.counters().dueFailovers, 1u);
}

TEST(FleetClient, EmptyPlacementFailsFast)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.placement.clear(); // Every server evicted.
    h.client.startRead(1, 50, 0);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsFailed, 1u);
}

TEST(FleetClient, FinishCountsUnresolved)
{
    Harness h(testPolicy());
    // The test body plays the campaign loop's serial phase.
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(1, 50, 0);
    h.client.startWrite(2, 60, 0);
    h.client.finish();
    EXPECT_EQ(h.client.counters().opsUnresolved, 2u);
    EXPECT_EQ(h.client.inflight(), 0u);
}

// ---- Sizing guards -------------------------------------------------

TEST(FleetClient, OpIdsFarApartAreLiveTogether)
{
    // The op table is keyed by id, not by a window of recent ids: ops
    // 2^20 apart share a home slot and are both live and both complete.
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    const u64 first = 1;
    const u64 second = first + (u64{1} << 20);
    h.client.startRead(first, 50, 0);
    h.client.startRead(second, 51, 0);
    ASSERT_EQ(h.client.inflight(), 2u);
    ASSERT_EQ(h.sent.size(), 2u);
    EXPECT_EQ(h.sent[1].first.op, second);
    h.client.onResponse(h.okFor(1), 1);
    EXPECT_EQ(h.client.inflight(), 1u);
    h.client.onResponse(h.okFor(0), 2);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsAcked, 2u);
    EXPECT_EQ(h.client.counters().duplicatesSuppressed, 0u);
}

TEST(FleetClient, OpTableGrowsWithTheLiveSet)
{
    // The table starts small, doubles before it is half full, and keeps
    // every live op reachable across growth and erasure.
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    EXPECT_EQ(h.client.opTableSlots(), FleetClient::kInitialOpSlots);
    const u64 n = 3 * FleetClient::kInitialOpSlots;
    for (u64 i = 0; i < n; ++i)
        h.client.startRead(i * 4096 + 7, i % 64, 0); // Same home slot.
    EXPECT_EQ(h.client.inflight(), n);
    EXPECT_GE(h.client.opTableSlots(), 2 * n);
    // Complete every other op (in reverse, so erasure shifts probe
    // runs around the survivors), then the rest.
    for (u64 i = n; i-- > 0;)
        if (i % 2 == 0)
            h.client.onResponse(h.okFor(i), 1);
    EXPECT_EQ(h.client.inflight(), n / 2);
    for (u64 i = 0; i < n; ++i)
        if (i % 2 == 1)
            h.client.onResponse(h.okFor(i), 2);
    EXPECT_EQ(h.client.inflight(), 0u);
    EXPECT_EQ(h.client.counters().opsAcked, n);
    EXPECT_EQ(h.client.counters().duplicatesSuppressed, 0u);
}

TEST(FleetClientDeath, StartingALiveOpIdIsFatal)
{
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    h.client.startRead(5, 50, 0);
    EXPECT_DEATH(h.client.startWrite(5, 51, 0),
                 "duplicate operation id 5");
}

TEST(FleetClientDeath, WriteOutsideKeySpaceIsFatal)
{
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    EXPECT_DEATH(h.client.startWrite(1, kTuning.keySpace, 0),
                 "outside the key space");
}

TEST(FleetClientDeath, WakeupPastWheelHorizonIsFatal)
{
    // tick() never ran, so the wheel still starts at tick 0: an op
    // started far later breaks the contract that every earlier tick
    // was drained, and its deadline wakeup would alias a bucket.
    Harness h(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    EXPECT_DEATH(h.client.startRead(1, 50, /*now=*/100'000),
                 "exceeds the wheel horizon");
}

// ---- Checkpoint integrity ------------------------------------------

/** The LE bytes ByteSink writes for `v`. */
std::vector<u8>
u64Bytes(u64 v)
{
    ByteSink sink;
    sink.putU64(v);
    return sink.bytes();
}

/** Overwrite the first occurrence of `from`'s encoding with `to`'s. */
void
rewriteFirstU64(std::vector<u8> &bytes, u64 from, u64 to)
{
    const std::vector<u8> pat = u64Bytes(from);
    const auto at =
        std::search(bytes.begin(), bytes.end(), pat.begin(), pat.end());
    ASSERT_NE(at, bytes.end());
    const std::vector<u8> rep = u64Bytes(to);
    std::copy(rep.begin(), rep.end(), at);
}

TEST(FleetClientCheckpointDeath, RepeatedLiveIdIsRejected)
{
    Harness a(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    const u64 first = 0x5A5A01;
    const u64 second = 0x5A5A02;
    a.client.startRead(first, 50, 0);
    a.client.startRead(second, 51, 0);
    ByteSink sink;
    a.client.saveState(sink);

    // The live-op list precedes the wheel, so the first occurrence of
    // the second id is its op record. Rewritten to the first id, the
    // stream carries one live id twice.
    std::vector<u8> bytes = sink.bytes();
    rewriteFirstU64(bytes, second, first);
    Harness b(testPolicy());
    ByteSource src(bytes);
    EXPECT_DEATH(b.client.loadState(src), "duplicate operation id");
}

TEST(FleetClientCheckpoint, LiveSetBeyondInitialTableRoundTrips)
{
    // More live ops than the initial table holds: the restored client
    // grows its table while loading, and from there on both clients
    // finish identically (same fingerprint, same re-saved bytes).
    const u64 n = 2 * FleetClient::kInitialOpSlots + 3;
    const u64 base = 0x5A5A0000; // Ids whose encodings occur once.
    Harness a(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    for (u64 i = 0; i < n; ++i) {
        if (i % 3 == 0)
            a.client.startWrite(base + i * 9, i % 64, 0);
        else
            a.client.startRead(base + i * 9, i % 64, 0);
    }
    a.client.tick(0);
    ASSERT_EQ(a.client.inflight(), n);
    ByteSink sink;
    a.client.saveState(sink);

    // Live ops are written in ascending id, although their home slots
    // (id & mask) wrap around the table.
    const std::vector<u8> &saved = sink.bytes();
    auto prev = saved.begin();
    for (u64 i = 0; i < n; ++i) {
        const std::vector<u8> pat = u64Bytes(base + i * 9);
        const auto at =
            std::search(saved.begin(), saved.end(), pat.begin(), pat.end());
        ASSERT_NE(at, saved.end());
        ASSERT_TRUE(i == 0 || at > prev) << "op " << i;
        prev = at;
    }

    const std::vector<u8> bytes = sink.bytes();
    Harness b(testPolicy());
    ByteSource src(bytes);
    b.client.loadState(src);
    EXPECT_EQ(src.remaining(), 0u);
    EXPECT_EQ(b.client.inflight(), n);
    ByteSink again;
    b.client.saveState(again);
    EXPECT_EQ(again.bytes(), bytes);

    // Answer every request sent so far on both sides, then let the
    // remaining ops retry and time out.
    const std::size_t sentAtSave = a.sent.size();
    for (std::size_t i = 0; i < sentAtSave; i += 2) {
        a.client.onResponse(a.okFor(i), 1);
        b.client.onResponse(a.okFor(i), 1);
    }
    for (u64 t = 1; t <= 400; ++t) {
        a.client.tick(t);
        b.client.tick(t);
    }
    a.client.finish();
    b.client.finish();
    EXPECT_EQ(a.sent.size() - sentAtSave, b.sent.size());
    ByteSink fa, fb;
    a.client.serialize(fa);
    b.client.serialize(fb);
    EXPECT_EQ(fa.bytes(), fb.bytes());
    ByteSink ca, cb;
    a.client.counters().serialize(ca);
    b.client.counters().serialize(cb);
    EXPECT_EQ(ca.bytes(), cb.bytes());
    EXPECT_GT(a.client.counters().opsAcked, 0u);
}

TEST(FleetClientCheckpointDeath, AckedCountMismatchIsRejected)
{
    Harness a(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    a.client.startWrite(1, 50, 0);
    a.client.onResponse(a.okFor(0), 1);
    a.client.onResponse(a.okFor(1), 1);
    ASSERT_EQ(a.client.ackedCount(), 1u);
    ByteSink sink;
    a.client.saveState(sink);

    // ackedCount directly follows the serialized counters.
    ByteSink counters;
    a.client.counters().serialize(counters);
    std::vector<u8> bytes = sink.bytes();
    const std::vector<u8> two = u64Bytes(2);
    std::copy(two.begin(), two.end(),
              bytes.begin() +
                  static_cast<std::ptrdiff_t>(counters.bytes().size()));
    Harness b(testPolicy());
    ByteSource src(bytes);
    EXPECT_DEATH(b.client.loadState(src), "acked count");
}

TEST(FleetClientCheckpointDeath, OutOfRangeOpKindIsRejected)
{
    Harness a(testPolicy());
    ThreadRoleGrant serial(kSerialPhase);
    const u64 id = 0x5A5A01;
    a.client.startWrite(id, 50, 0);
    ByteSink sink;
    a.client.saveState(sink);

    // The live-op list precedes the wheel, so the first occurrence of
    // the id is its op record, whose first byte is the kind.
    std::vector<u8> bytes = sink.bytes();
    const std::vector<u8> pat = u64Bytes(id);
    const auto at =
        std::search(bytes.begin(), bytes.end(), pat.begin(), pat.end());
    ASSERT_NE(at, bytes.end());
    u8 &kind = at[static_cast<std::ptrdiff_t>(pat.size())];
    ASSERT_EQ(kind, static_cast<u8>(OpKind::Write));
    kind = static_cast<u8>(OpKind::Write) + 1;
    Harness b(testPolicy());
    ByteSource src(bytes);
    EXPECT_DEATH(b.client.loadState(src), "OpKind byte 2 out of range");
}

} // namespace
