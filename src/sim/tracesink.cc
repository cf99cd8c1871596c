#include "sim/tracesink.hh"

#include <algorithm>
#include <bit>
#include <iterator>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh" // json::writeString

namespace tako::trace
{

namespace
{

/** Category names, indexed by flag bit position. */
constexpr const char *kFlagNames[] = {"cache", "coherence", "engine",
                                      "morph", "dram",      "rmo",
                                      "mem"};
static_assert(std::size(kFlagNames) ==
                  static_cast<std::size_t>(Flag::NumFlags),
              "one name per trace category");

} // namespace

const char *
flagName(Flag f)
{
    return kFlagNames[std::countr_zero(static_cast<std::uint32_t>(f))];
}

bool
parseSpec(const std::string &spec, std::uint32_t &mask, std::string &err)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const auto *it = std::find(std::begin(kFlagNames),
                                   std::end(kFlagNames), tok);
        if (tok == "all") {
            mask = allFlagsMask();
        } else if (it != std::end(kFlagNames)) {
            mask |= 1u << (it - std::begin(kFlagNames));
        } else if (!tok.empty()) {
            err = "unknown trace category '" + tok + "' (valid:";
            for (const char *n : kFlagNames)
                err += std::string(" ") + n;
            err += " all)";
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream &os, std::uint32_t mask)
    : os_(os), mask_(mask & allFlagsMask())
{
    os_ << "[";
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    close();
}

void
ChromeTraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    os_ << "\n]\n";
    os_.flush();
}

void
ChromeTraceWriter::event(const char *ph, const char *cat, const char *name,
                         int pid, int tid, Tick ts, Tick dur, bool has_dur,
                         const std::string &args_json)
{
    panic_if(closed_, "trace event after close()");
    os_ << (first_ ? "\n" : ",\n");
    first_ = false;
    os_ << "{\"ph\":\"" << ph << "\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << ts;
    if (has_dur)
        os_ << ",\"dur\":" << dur;
    if (cat)
        os_ << ",\"cat\":\"" << cat << "\"";
    os_ << ",\"name\":";
    json::writeString(os_, name);
    if (!args_json.empty())
        os_ << ",\"args\":" << args_json;
    os_ << "}";
    ++events_;
}

void
ChromeTraceWriter::completeEvent(const char *cat, const char *name,
                                 int pid, int tid, Tick ts, Tick dur,
                                 const std::string &args_json)
{
    event("X", cat, name, pid, tid, ts, dur, true, args_json);
}

void
ChromeTraceWriter::instantEvent(const char *cat, const char *name, int pid,
                                int tid, Tick ts,
                                const std::string &args_json)
{
    event("i", cat, name, pid, tid, ts, 0, false, args_json);
}

void
ChromeTraceWriter::ensureTrack(int pid, const char *process, int tid,
                               const std::string &thread)
{
    if (processes_.insert(pid).second) {
        event("M", nullptr, "process_name", pid, 0, 0, 0, false,
              std::string("{\"name\":\"") + process + "\"}");
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(pid))
         << 32) |
        static_cast<std::uint32_t>(tid);
    if (tracks_.insert(key).second) {
        std::ostringstream args;
        args << "{\"name\":";
        json::writeString(args, thread);
        args << "}";
        event("M", nullptr, "thread_name", pid, tid, 0, 0, false,
              args.str());
    }
}

} // namespace tako::trace
