#include "fleet/fleet_types.h"

#include <sstream>

namespace citadel {
namespace fleet {

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok:
        return "Ok";
    case Status::NotFound:
        return "NotFound";
    case Status::DueData:
        return "DueData";
    case Status::Busy:
        return "Busy";
    }
    return "?";
}

const char *
serverStateName(ServerState s)
{
    switch (s) {
    case ServerState::Up:
        return "Up";
    case ServerState::Stalled:
        return "Stalled";
    case ServerState::Slowed:
        return "Slowed";
    case ServerState::Fenced:
        return "Fenced";
    case ServerState::Crashed:
        return "Crashed";
    case ServerState::Warming:
        return "Warming";
    }
    return "?";
}

bool
serverTransitionAllowed(ServerState from, ServerState to)
{
    if (from == to)
        return false;
    switch (from) {
    case ServerState::Up:
    case ServerState::Stalled:
    case ServerState::Slowed:
        // Within Serving freely, or out to Fenced/Crashed. Never
        // directly into Warming: only Fenced servers warm.
        return to != ServerState::Warming;
    case ServerState::Fenced:
        return to == ServerState::Warming || to == ServerState::Crashed;
    case ServerState::Crashed:
        return to == ServerState::Fenced; // process restart
    case ServerState::Warming:
        // Admission (the only re-entry into Serving), abort, or crash.
        return to == ServerState::Up || to == ServerState::Fenced ||
               to == ServerState::Crashed;
    }
    return false;
}

std::string
FleetCounters::summary() const
{
    std::ostringstream os;
    os << "ops " << opsAcked << "/" << opsIssued << " acked (" << opsFailed
       << " failed, " << opsUnresolved << " unresolved) | retries "
       << retries << " hedges " << hedges << " (won " << hedgeWins
       << ") | chaos: " << serverCrashes << " crashes, " << serverStalls
       << " stalls, " << requestsDropped << " dropped, "
       << requestsDuplicated << " dup | failovers " << failovers
       << " repairs " << repairPushes << " | elastic: " << serverJoins
       << " joins (" << warmFills << " warm fills, " << warmRestarts
       << " restarts), " << loadMigrations << " load migrations, "
       << resumes << " resumes | device: "
       << deviceCorrected << " CE, " << deviceDueReads << " DUE reads";
    return os.str();
}

void
putRequest(ByteSink &sink, const Request &r)
{
    sink.putU64(r.op);
    sink.putU32(r.attempt);
    sink.putU32(r.replica);
    sink.putU8(static_cast<u8>(r.kind));
    sink.putU64(r.key);
    sink.putU64(r.version);
    sink.putU64(r.value);
}

Request
getRequest(ByteSource &src)
{
    Request r;
    r.op = src.getU64();
    r.attempt = src.getU32();
    r.replica = src.getU32();
    r.kind = src.getEnum(OpKind::Write, "OpKind");
    r.key = src.getU64();
    r.version = src.getU64();
    r.value = src.getU64();
    return r;
}

void
putResponse(ByteSink &sink, const Response &r)
{
    sink.putU64(r.op);
    sink.putU32(r.attempt);
    sink.putU32(r.replica);
    sink.putU8(static_cast<u8>(r.status));
    sink.putU64(r.version);
    sink.putU64(r.value);
    sink.putU32(r.from);
}

Response
getResponse(ByteSource &src)
{
    Response r;
    r.op = src.getU64();
    r.attempt = src.getU32();
    r.replica = src.getU32();
    r.status = src.getEnum(Status::Busy, "Status");
    r.version = src.getU64();
    r.value = src.getU64();
    r.from = src.getU32();
    return r;
}

} // namespace fleet
} // namespace citadel
