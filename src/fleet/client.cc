#include "fleet/client.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.h"
#include "common/rng.h"

namespace citadel {
namespace fleet {

FleetClient::FleetClient(const RetryPolicy &policy, u32 replication,
                         u32 ackQuorum, u64 valueSalt,
                         const ClientTuning &tuning)
    : policy_(policy), replication_(replication), ackQuorum_(ackQuorum),
      valueSalt_(valueSalt)
{
    policy_.validate();
    if (replication_ == 0)
        fatal("FleetClient: replication must be >= 1");
    if (ackQuorum_ == 0 || ackQuorum_ > replication_)
        fatal("FleetClient: ackQuorum must be in [1, replication]");
    if (tuning.keySpace == 0)
        fatal("FleetClient: ClientTuning keySpace must be positive");
    hist_.assign(policy_.opDeadline + 2, 0);
    table_.resize(kInitialOpSlots);
    tableMask_ = table_.size() - 1;
    // Every pending wakeup lies within one op lifetime of the drain
    // cursor, so this horizon makes bucket aliasing impossible (and
    // wakeAt checks anyway).
    const u64 horizon =
        std::max({policy_.opDeadline, policy_.attemptTimeout,
                  policy_.backoffCap, policy_.hedgeAfter}) +
        4;
    wheel_.resize(std::bit_ceil(horizon));
    wheelMask_ = wheel_.size() - 1;
    versions_.assign(tuning.keySpace, 0);
    acked_.assign(tuning.keySpace, AckedWrite{});
}

void
FleetClient::connect(PlacementFn placement, SendFn send)
{
    placementFn_ = std::move(placement);
    sendFn_ = std::move(send);
}

u64
FleetClient::valueFor(u64 key, u64 version, u64 salt)
{
    return mix64(key * 0xA24BAED4963EE407ull ^
                 version * 0x9FB21C651E98DF25ull ^ salt);
}

FleetClient::Op &
FleetClient::insertOp(u64 op_id, const Op &op)
{
    if (findSlot(op_id) != kNoSlot)
        fatal("FleetClient: duplicate operation id %llu",
              static_cast<unsigned long long>(op_id));
    if (2 * (live_ + 1) > table_.size())
        growTable();
    u32 idx;
    if (freeOps_.empty()) {
        idx = static_cast<u32>(ops_.size());
        ops_.push_back(op);
    } else {
        idx = freeOps_.back();
        freeOps_.pop_back();
        ops_[idx] = op;
    }
    placeSlot(Slot{op_id, idx});
    peakLive_ = std::max(peakLive_, ++live_);
    return ops_[idx];
}

u64
FleetClient::probeDistance(u64 i) const
{
    return (i - (table_[i].id & tableMask_)) & tableMask_;
}

void
FleetClient::placeSlot(Slot s)
{
    // Robin Hood: an entry farther from its home slot takes the place
    // of one nearer to its own, so along every probe run the distances
    // rise by at most one per slot. That lets findSlot() stop early and
    // eraseOp() stop at the first entry sitting in its home slot —
    // which, with dense ids, is almost always the next one.
    u64 d = 0;
    for (u64 i = s.id & tableMask_;; i = (i + 1) & tableMask_, ++d) {
        if (table_[i].op == kNoOp) {
            table_[i] = s;
            return;
        }
        const u64 di = probeDistance(i);
        if (di < d) {
            std::swap(s, table_[i]);
            d = di;
        }
    }
}

void
FleetClient::growTable()
{
    const std::vector<Slot> old =
        std::exchange(table_, std::vector<Slot>(table_.size() * 2));
    tableMask_ = table_.size() - 1;
    for (const Slot &s : old)
        if (s.op != kNoOp)
            placeSlot(s);
}

u64
FleetClient::findSlot(u64 op_id) const
{
    u64 d = 0;
    for (u64 i = op_id & tableMask_; table_[i].op != kNoOp;
         i = (i + 1) & tableMask_, ++d) {
        if (table_[i].id == op_id)
            return i;
        if (probeDistance(i) < d)
            break; // op_id would have displaced this entry.
    }
    return kNoSlot;
}

FleetClient::Op *
FleetClient::findOp(u64 op_id)
{
    const u64 i = findSlot(op_id);
    return i == kNoSlot ? nullptr : &ops_[table_[i].op];
}

void
FleetClient::eraseOp(u64 op_id)
{
    u64 hole = findSlot(op_id);
    if (hole == kNoSlot)
        return;
    freeOps_.push_back(table_[hole].op);
    --live_;
    // Backward-shift delete: pull the rest of the probe run back one
    // slot, up to an empty slot or an entry already at home, so the
    // table needs no tombstones and keeps the Robin Hood order.
    for (u64 j = (hole + 1) & tableMask_;
         table_[j].op != kNoOp && probeDistance(j) != 0;
         j = (j + 1) & tableMask_) {
        table_[hole] = table_[j];
        hole = j;
    }
    table_[hole] = Slot{};
}

void
FleetClient::clearOps()
{
    std::fill(table_.begin(), table_.end(), Slot{});
    ops_.clear();
    freeOps_.clear();
    live_ = 0;
}

u64 &
FleetClient::nextVersionOf(u64 key)
{
    if (key >= versions_.size())
        fatal("FleetClient: key %llu outside the key space (%zu)",
              static_cast<unsigned long long>(key), versions_.size());
    return versions_[key];
}

void
FleetClient::recordAck(u64 key, u64 version, u64 value)
{
    AckedWrite &aw = acked_[key]; // startWrite validated the key.
    if (aw.version == 0)
        ++ackedCount_;
    if (version > aw.version) {
        aw.version = version;
        aw.value = value;
    }
}

void
FleetClient::wakeAt(u64 tick, u64 op_id)
{
    // A wake for an already-drained tick lands in the next undrained
    // bucket: the next tick() call processes it.
    const u64 at = std::max(tick, lastProcessed_ + 1);
    if (at - (lastProcessed_ + 1) >= wheel_.size())
        fatal("FleetClient: wakeup %llu ticks ahead exceeds the wheel "
              "horizon (%zu)",
              static_cast<unsigned long long>(at - lastProcessed_),
              wheel_.size());
    wheel_[at & wheelMask_].push_back(op_id);
}

void
FleetClient::startRead(u64 op_id, u64 key, u64 now)
{
    Op op;
    op.kind = OpKind::Read;
    op.key = key;
    op.issuedAt = now;
    op.deadline = now + policy_.opDeadline;
    Op &live = insertOp(op_id, op);
    ++counters_.opsIssued;
    wakeAt(live.deadline, op_id);
    sendRead(op_id, live, now);
}

void
FleetClient::startWrite(u64 op_id, u64 key, u64 now)
{
    Op op;
    op.kind = OpKind::Write;
    op.key = key;
    op.version = ++nextVersionOf(key);
    op.value = valueFor(key, op.version, valueSalt_);
    op.issuedAt = now;
    op.deadline = now + policy_.opDeadline;
    Op &live = insertOp(op_id, op);
    ++counters_.opsIssued;
    wakeAt(live.deadline, op_id);
    sendWrite(op_id, live, now);
}

void
FleetClient::sendRead(u64 op_id, Op &op, u64 now)
{
    placementFn_(op.key, scratch_);
    if (scratch_.empty()) {
        complete(op_id, op, false, now);
        return;
    }
    ++op.attempts;
    ++counters_.attempts;
    op.lastSentAt = now;
    op.retryAt = 0;
    op.hedged = false;
    op.hedgeServer = kNoServer;
    const u32 slot =
        (op.attempts - 1) % static_cast<u32>(scratch_.size());
    op.mainServer = scratch_[slot];

    Request r;
    r.op = op_id;
    r.attempt = op.attempts - 1;
    r.replica = slot;
    r.kind = OpKind::Read;
    r.key = op.key;
    sendFn_(r, op.mainServer);

    if (policy_.hedgeAfter > 0 &&
        policy_.hedgeAfter < policy_.attemptTimeout &&
        scratch_.size() > 1)
        wakeAt(now + policy_.hedgeAfter, op_id);
    wakeAt(now + policy_.attemptTimeout, op_id);
}

void
FleetClient::sendWrite(u64 op_id, Op &op, u64 now)
{
    placementFn_(op.key, scratch_);
    if (scratch_.empty()) {
        complete(op_id, op, false, now);
        return;
    }
    ++op.attempts;
    op.lastSentAt = now;
    op.retryAt = 0;
    // Fan out to every replica that has not acknowledged yet.
    for (u32 slot = 0; slot < scratch_.size(); ++slot) {
        const ServerIdx s = scratch_[slot];
        if (s < 64 && (op.ackMask >> s) & 1)
            continue;
        Request r;
        r.op = op_id;
        r.attempt = op.attempts - 1;
        r.replica = slot;
        r.kind = OpKind::Write;
        r.key = op.key;
        r.version = op.version;
        r.value = op.value;
        sendFn_(r, s);
        ++counters_.attempts;
    }
    wakeAt(now + policy_.attemptTimeout, op_id);
}

void
FleetClient::sendHedge(u64 op_id, Op &op)
{
    placementFn_(op.key, scratch_);
    op.hedged = true;
    for (u32 slot = 0; slot < scratch_.size(); ++slot) {
        if (scratch_[slot] == op.mainServer)
            continue;
        op.hedgeServer = scratch_[slot];
        Request r;
        r.op = op_id;
        r.attempt = op.attempts - 1;
        r.replica = slot;
        r.kind = OpKind::Read;
        r.key = op.key;
        sendFn_(r, op.hedgeServer);
        ++counters_.hedges;
        ++counters_.attempts;
        return;
    }
    // No distinct replica left to hedge to; the attempt timeout path
    // still covers the operation.
}

void
FleetClient::beginBackoff(u64 op_id, Op &op, u64 now)
{
    if (op.attempts >= policy_.maxAttempts || now >= op.deadline) {
        complete(op_id, op, false, now);
        return;
    }
    const u64 delay = policy_.backoff(op_id, op.attempts);
    op.retryAt = now + delay;
    counters_.backoffTicks += delay;
    ++counters_.retries;
    wakeAt(op.retryAt, op_id);
}

void
FleetClient::onResponse(const Response &resp, u64 now)
{
    Op *found = findOp(resp.op);
    if (!found) {
        // Completed, failed, or a chaos duplicate: idempotence means
        // late copies are simply dropped.
        ++counters_.duplicatesSuppressed;
        return;
    }
    Op &op = *found;

    switch (resp.status) {
    case Status::Busy:
        ++counters_.busyRejections;
        if (op.retryAt == 0)
            beginBackoff(resp.op, op, now);
        return;

    case Status::DueData:
        if (op.kind == OpKind::Write) {
            // This replica cannot serve the key's line; the timeout
            // path will re-fan-out, and the quorum rule decides.
            if (op.retryAt == 0)
                beginBackoff(resp.op, op, now);
            return;
        }
        ++counters_.dueFailovers;
        if (op.attempts < policy_.maxAttempts && now < op.deadline) {
            // Immediate failover read: the replica's device may be
            // healthy even though this stack lost the line.
            sendRead(resp.op, op, now);
        } else {
            ++counters_.readsDue;
            complete(resp.op, op, false, now);
        }
        return;

    case Status::Ok:
    case Status::NotFound:
        if (op.kind == OpKind::Read) {
            if (op.hedgeServer != kNoServer &&
                resp.from == op.hedgeServer &&
                resp.from != op.mainServer)
                ++counters_.hedgeWins;
            complete(resp.op, op, true, now);
            return;
        }
        // Write acknowledgement path.
        if (resp.status != Status::Ok || resp.version != op.version)
            return; // Stale or partial; not an ack for this version.
        if (resp.from >= 64)
            fatal("FleetClient: server index %u exceeds the 64-server "
                  "ack bitmask",
                  resp.from);
        if ((op.ackMask >> resp.from) & 1)
            return; // Duplicate ack from the same replica.
        op.ackMask |= 1ull << resp.from;
        ++op.acks;
        if (op.acks >= ackQuorum_) {
            recordAck(op.key, op.version, op.value);
            ++counters_.writesAcked;
            complete(resp.op, op, true, now);
        }
        return;
    }
}

void
FleetClient::evaluate(u64 op_id, u64 now)
{
    Op *found = findOp(op_id);
    if (!found)
        return; // Completed; stale wakeup.
    Op &op = *found;

    if (now >= op.deadline) {
        complete(op_id, op, false, now);
        return;
    }
    if (op.retryAt != 0) {
        if (now >= op.retryAt) {
            op.retryAt = 0;
            if (op.kind == OpKind::Read)
                sendRead(op_id, op, now);
            else
                sendWrite(op_id, op, now);
        }
        return;
    }
    const u64 elapsed = now - op.lastSentAt;
    if (op.kind == OpKind::Read && !op.hedged &&
        policy_.hedgeAfter > 0 && elapsed >= policy_.hedgeAfter &&
        elapsed < policy_.attemptTimeout)
        sendHedge(op_id, op);
    if (elapsed >= policy_.attemptTimeout) {
        ++counters_.attemptTimeouts;
        beginBackoff(op_id, op, now);
    }
}

void
FleetClient::tick(u64 now)
{
    // Drain bucket-by-bucket in tick order; within a bucket, insertion
    // order. The index loop re-reads size() so a zero-delay wake
    // inserted while its own tick drains is still processed this call.
    for (u64 t = lastProcessed_ + 1; t <= now; ++t) {
        std::vector<u64> &bucket = wheel_[t & wheelMask_];
        for (std::size_t i = 0; i < bucket.size(); ++i)
            evaluate(bucket[i], now);
        bucket.clear();
        lastProcessed_ = t;
    }
}

void
FleetClient::complete(u64 op_id, Op &op, bool acked, u64 now)
{
    if (acked) {
        ++counters_.opsAcked;
        const u64 latency =
            std::min<u64>(now - op.issuedAt, hist_.size() - 1);
        ++hist_[latency];
    } else {
        ++counters_.opsFailed;
    }
    eraseOp(op_id);
}

void
FleetClient::finish()
{
    counters_.opsUnresolved += inflight();
    clearOps();
    for (auto &bucket : wheel_)
        bucket.clear();
}

void
FleetClient::putOp(ByteSink &sink, const Op &op)
{
    sink.putU8(static_cast<u8>(op.kind));
    sink.putU64(op.key);
    sink.putU64(op.version);
    sink.putU64(op.value);
    sink.putU64(op.issuedAt);
    sink.putU64(op.deadline);
    sink.putU32(op.attempts);
    sink.putU64(op.lastSentAt);
    sink.putU64(op.retryAt);
    sink.putBool(op.hedged);
    sink.putU32(op.mainServer);
    sink.putU32(op.hedgeServer);
    sink.putU64(op.ackMask);
    sink.putU32(op.acks);
}

FleetClient::Op
FleetClient::getOp(ByteSource &src)
{
    Op op;
    op.kind = src.getEnum(OpKind::Write, "OpKind");
    op.key = src.getU64();
    op.version = src.getU64();
    op.value = src.getU64();
    op.issuedAt = src.getU64();
    op.deadline = src.getU64();
    op.attempts = src.getU32();
    op.lastSentAt = src.getU64();
    op.retryAt = src.getU64();
    op.hedged = src.getBool();
    op.mainServer = src.getU32();
    op.hedgeServer = src.getU32();
    op.ackMask = src.getU64();
    op.acks = src.getU32();
    return op;
}

void
FleetClient::saveState(ByteSink &sink) const
{
    counters_.serialize(sink);
    sink.putU64(ackedCount_);
    for (const u64 bucket : hist_)
        sink.putU64(bucket);
    for (const u64 v : versions_)
        sink.putU64(v);
    for (const AckedWrite &aw : acked_) {
        sink.putU64(aw.version);
        sink.putU64(aw.value);
    }
    std::vector<Slot> live;
    live.reserve(live_);
    for (const Slot &s : table_)
        if (s.op != kNoOp)
            live.push_back(s);
    std::sort(live.begin(), live.end(),
              [](const Slot &a, const Slot &b) { return a.id < b.id; });
    sink.putU64(static_cast<u64>(live.size()));
    for (const Slot &s : live) {
        sink.putU64(s.id);
        putOp(sink, ops_[s.op]);
    }
    sink.putU64(lastProcessed_);
    // Buckets are restored by wheel index: together with
    // lastProcessed_ that reproduces the exact drain behavior.
    for (const auto &bucket : wheel_) {
        sink.putU64(bucket.size());
        for (const u64 id : bucket)
            sink.putU64(id);
    }
}

void
FleetClient::loadState(ByteSource &src)
{
    counters_.deserialize(src);
    ackedCount_ = src.getU64();
    for (u64 &bucket : hist_)
        bucket = src.getU64();
    for (u64 &v : versions_)
        v = src.getU64();
    u64 acked = 0;
    for (AckedWrite &aw : acked_) {
        aw.version = src.getU64();
        aw.value = src.getU64();
        acked += aw.version != 0;
    }
    if (acked != ackedCount_)
        fatal("FleetClient::loadState: acked count %llu != %llu keys "
              "in the acked array",
              static_cast<unsigned long long>(ackedCount_),
              static_cast<unsigned long long>(acked));
    clearOps();
    peakLive_ = 0;
    const u64 nl = src.getCount(sizeof(u64));
    for (u64 i = 0; i < nl; ++i) {
        const u64 id = src.getU64();
        insertOp(id, getOp(src)); // A repeated live id is fatal.
    }
    lastProcessed_ = src.getU64();
    for (auto &bucket : wheel_) {
        bucket.clear();
        const u64 n = src.getCount(sizeof(u64));
        for (u64 i = 0; i < n; ++i)
            bucket.push_back(src.getU64());
    }
}

void
FleetClient::serialize(ByteSink &sink) const
{
    sink.putU64(ackedCount_);
    forEachAcked([&](u64 key, const AckedWrite &aw) {
        sink.putU64(key);
        sink.putU64(aw.version);
        sink.putU64(aw.value);
    });
    sink.putU64(hist_.size());
    for (u64 bucket : hist_)
        sink.putU64(bucket);
}

} // namespace fleet
} // namespace citadel
