#include "sim/options.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <type_traits>

#include "sim/log.hpp"

namespace tpnet {

namespace {

/// Whole-string std::from_chars: no leading blanks or '+', no tail.
template <class T>
bool
parseWhole(const std::string &text, T *out)
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    *out = v;
    return true;
}

} // namespace

bool
parseValue(const std::string &text, bool *out)
{
    if (text.empty() || text == "1" || text == "true")
        *out = true;
    else if (text == "0" || text == "false")
        *out = false;
    else
        return false;
    return true;
}

bool
parseValue(const std::string &text, int *out)
{
    return parseWhole(text, out);
}

bool
parseValue(const std::string &text, std::uint64_t *out)
{
    return parseWhole(text, out);
}

bool
parseValue(const std::string &text, double *out)
{
    double v = 0.0;
    if (!parseWhole(text, &v) || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string formatValue(bool v) { return v ? "1" : "0"; }
std::string formatValue(int v) { return std::to_string(v); }
std::string formatValue(std::uint64_t v) { return std::to_string(v); }

OptionParser::OptionParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{}

void
OptionParser::add(const std::string &name, const std::string &hint,
                  const std::string &help, Setter set)
{
    if (find(name))
        tpnet_panic(program_, ": option --", name, " registered twice");
    options_.push_back({name, hint, help, std::move(set)});
}

namespace {

template <class T>
OptionParser::Setter
storeTo(T *target)
{
    return [target](const std::string &value, std::string *) {
        return parseValue(value, target);
    };
}

} // namespace

void
OptionParser::addFlag(const std::string &name, const std::string &help,
                      bool *target)
{
    add(name, "", help, storeTo(target));
}

void
OptionParser::addInt(const std::string &name, const std::string &help,
                     int *target)
{
    add(name, "<int>", help, storeTo(target));
}

void
OptionParser::addUint64(const std::string &name, const std::string &help,
                        std::uint64_t *target)
{
    add(name, "<u64>", help, storeTo(target));
}

void
OptionParser::addDouble(const std::string &name, const std::string &help,
                        double *target)
{
    add(name, "<float>", help, storeTo(target));
}

void
OptionParser::addString(const std::string &name, const std::string &help,
                        std::string *target)
{
    add(name, "<str>", help, [target](const std::string &value,
                                      std::string *) {
        *target = value;
        return true;
    });
}

void
OptionParser::addJobs(int *target)
{
    addInt("jobs",
           "worker threads (0 = $TPNET_JOBS, else all hardware "
           "threads); results are identical for every value",
           target);
}

OptionParser::Option *
OptionParser::find(const std::string &name)
{
    for (Option &opt : options_) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

bool
OptionParser::given(const std::string &name) const
{
    for (const Option &opt : options_) {
        if (opt.name == name)
            return opt.given;
    }
    return false;
}

bool
OptionParser::parse(int argc, const char *const *argv, std::string *error)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (arg.rfind("--", 0) != 0) {
            if (error)
                *error = "unexpected argument '" + arg + "'";
            return false;
        }
        arg = arg.substr(2);

        std::string value;
        bool has_value = false;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }

        Option *opt = find(arg);
        if (!opt) {
            if (error)
                *error = "unknown option --" + arg;
            return false;
        }
        if (!has_value && !opt->hint.empty()) {
            if (i + 1 >= argc) {
                if (error)
                    *error = "missing value for --" + arg;
                return false;
            }
            value = argv[++i];
        }
        std::string why;
        if (!opt->set(value, &why)) {
            if (error) {
                *error = "bad value '" + value + "' for --" + arg;
                if (!why.empty())
                    *error += ": " + why;
            }
            return false;
        }
        opt->given = true;
    }
    return true;
}

std::optional<int>
OptionParser::parseOrExit(int argc, const char *const *argv,
                          int error_status)
{
    std::string error;
    if (!parse(argc, argv, &error)) {
        std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
                     usage().c_str());
        return error_status;
    }
    if (helpRequested()) {
        std::fputs(usage().c_str(), stdout);
        return 0;
    }
    return std::nullopt;
}

std::string
OptionParser::usage() const
{
    std::ostringstream os;
    os << program_ << " — " << description_ << "\n\noptions:\n";
    for (const Option &opt : options_) {
        os << "  --" << opt.name;
        if (opt.hint.empty())
            os << "[=0|1]";
        else
            os << " " << opt.hint;
        os << "\n      " << opt.help << "\n";
    }
    return os.str();
}

namespace {

/// A row whose option value is the field's own value.
template <auto Field>
ConfigRow
valueRow(const char *name, const char *help)
{
    using T = std::remove_reference_t<
        decltype(std::declval<SimConfig &>().*Field)>;
    const char *hint = std::is_same_v<T, bool>     ? ""
                       : std::is_same_v<T, int>    ? "<int>"
                       : std::is_same_v<T, double> ? "<float>"
                                                   : "<u64>";
    return {name, hint, help,
            [](const std::string &v, SimConfig *c, std::string *) {
                return parseValue(v, &(c->*Field));
            },
            [](const SimConfig &c) { return formatValue(c.*Field); }};
}

/// A flag that clears a default-on field.
template <auto Field>
ConfigRow
negatedFlagRow(const char *name, const char *help)
{
    return {name, "", help,
            [](const std::string &v, SimConfig *c, std::string *) {
                bool on = false;
                if (!parseValue(v, &on))
                    return false;
                c->*Field = !on;
                return true;
            },
            [](const SimConfig &c) { return formatValue(!(c.*Field)); }};
}

/// A row naming one value of an enum field.
template <auto Field, auto Parse, auto Name>
ConfigRow
enumRow(const char *name, const char *names, const char *help)
{
    return {name, names, help,
            [](const std::string &v, SimConfig *c, std::string *) {
                return Parse(v, &(c->*Field));
            },
            [](const SimConfig &c) { return std::string(Name(c.*Field)); }};
}

} // namespace

const std::vector<ConfigRow> &
configRows()
{
    using C = SimConfig;
    static const std::vector<ConfigRow> rows = {
        enumRow<&C::protocol, parseProtocolName, protocolName>(
            "protocol", "DOR|DP|SR|PCS|MB-m|TP", "routing protocol"),
        enumRow<&C::topology, parseTopologyName, topologyName>(
            "topology", "torus|mesh|express|dragonfly", "network topology"),
        valueRow<&C::k>("k", "radix (nodes per dimension)"),
        valueRow<&C::n>("n", "dimensions"),
        valueRow<&C::expressGap>(
            "express-gap",
            "express-channel stride per dimension (--topology express)"),
        valueRow<&C::dfRouters>("df-routers",
                                "routers per group (--topology dragonfly)"),
        valueRow<&C::dfGlobal>(
            "df-global",
            "global channels per router (--topology dragonfly)"),
        valueRow<&C::msgLength>("length", "data flits per message"),
        valueRow<&C::scoutK>("scout-k",
                             "scouting distance K (SR mode; TP: 0 = "
                             "aggressive)"),
        valueRow<&C::misrouteLimit>("m", "misroute limit"),
        valueRow<&C::maxRetries>(
            "retries", "source retries before a message is undeliverable"),
        valueRow<&C::adaptiveVcs>("adaptive-vcs", "adaptive VCs per link"),
        valueRow<&C::escapeVcs>("escape-vcs",
                                "escape (dateline) VCs per link"),
        valueRow<&C::bufDepth>("buffers", "DIBU depth in flits"),
        valueRow<&C::load>("load", "offered load, data flits/node/cycle"),
        enumRow<&C::pattern, parsePatternName, patternParseName>(
            "pattern",
            "uniform|bit-complement|transpose|neighbor|tornado|"
            "bit-reversal|shuffle",
            "destination pattern"),
        {"classes", "<spec>",
         "workload classes replacing --pattern/--load: "
         "\"pattern=<name>,load=<f>[,len=][,prio=][,hotspot=][,hotspots=]"
         "[,burst=][,duty=][,outstanding=][,replylen=]\" joined by ';' "
         "(\"\" = none)",
         [](const std::string &v, SimConfig *c, std::string *why) {
             c->trafficClasses.clear();
             return v.empty() ||
                    parseTrafficClasses(v, &c->trafficClasses, why);
         },
         [](const SimConfig &c) {
             return formatTrafficClasses(c.trafficClasses);
         }},
        valueRow<&C::staticNodeFaults>("node-faults", "static node faults"),
        valueRow<&C::staticLinkFaults>("link-faults", "static link faults"),
        valueRow<&C::dynamicNodeFaults>("dynamic",
                                        "dynamic node faults over the run"),
        valueRow<&C::dynamicLinkFaults>("dynamic-links",
                                        "dynamic link faults over the run"),
        valueRow<&C::intermittentFaults>(
            "intermittent", "intermittent link faults over the run"),
        valueRow<&C::intermittentDownCycles>(
            "intermittent-down", "cycles an intermittent link stays down"),
        negatedFlagRow<&C::markUnsafe>("no-unsafe",
                                       "disable unsafe-channel marking"),
        valueRow<&C::tailAck>("tail-ack",
                              "hold paths + message acks + retransmit"),
        valueRow<&C::hardwareAcks>("hardware-acks",
                                   "dedicated acknowledgment signalling"),
        valueRow<&C::verifyCwg>(
            "verify-cwg",
            "run the channel-wait-for-graph deadlock analyzer (Theorem 3 "
            "checked online)"),
        valueRow<&C::recoveryMode>(
            "recovery",
            "knot-triggered deadlock recovery: free the escape bandwidth "
            "for adaptive use and heal detected knots by victim abort + "
            "source retransmit"),
        enumRow<&C::victimPolicy, parseVictimPolicyName, victimPolicyName>(
            "victim", "youngest|fewest-hops|random",
            "recovery victim policy"),
        valueRow<&C::maxHealAttempts>(
            "heal-budget", "max heals per knot before livelock escalation"),
        valueRow<&C::seed>("seed", "RNG seed"),
        valueRow<&C::warmup>("warmup", "warmup cycles"),
        valueRow<&C::measure>("measure", "measurement window cycles"),
        negatedFlagRow<&C::eventEngine>(
            "no-event-skip",
            "disable the event engine's idle-cycle fast path (step every "
            "cycle; results are bit-identical)"),
    };
    return rows;
}

bool
setConfigOption(SimConfig *cfg, const std::string &name,
                const std::string &value, std::string *why)
{
    for (const ConfigRow &row : configRows()) {
        if (name == row.name)
            return row.parse(value, cfg, why);
    }
    tpnet_panic("no SimConfig option --", name);
}

void
ConfigOptions::bind(OptionParser &parser,
                    std::initializer_list<const char *> names)
{
    std::size_t matched = 0;
    for (const ConfigRow &row : configRows()) {
        bool wanted = names.size() == 0;
        for (const char *name : names)
            wanted = wanted || row.name == std::string(name);
        if (!wanted)
            continue;
        ++matched;
        rows_.push_back(&row);
        parser.add(row.name, row.hint, row.help,
                   [this, &row](const std::string &value, std::string *why) {
                       SimConfig probe;
                       if (!row.parse(value, &probe, why))
                           return false;
                       given_.emplace_back(&row, value);
                       return true;
                   });
    }
    if (names.size() != 0 && matched != names.size())
        tpnet_panic("ConfigOptions::bind: unknown SimConfig option name");
}

void
ConfigOptions::applyTo(SimConfig *cfg) const
{
    for (const auto &[row, value] : given_)
        row->parse(value, cfg, nullptr);
}

std::vector<std::string>
ConfigOptions::format(const SimConfig &cfg, const SimConfig &reference) const
{
    std::vector<std::string> args;
    for (const ConfigRow *row : rows_) {
        const std::string value = row->format(cfg);
        if (value == row->format(reference))
            continue;
        const std::string flag = std::string("--") + row->name;
        if (*row->hint == '\0') {
            args.push_back(value == "1" ? flag : flag + "=0");
        } else {
            args.push_back(flag);
            args.push_back(value);
        }
    }
    return args;
}

std::string
joinArgs(const std::vector<std::string> &args)
{
    std::string line;
    for (const std::string &arg : args) {
        if (!line.empty())
            line += ' ';
        if (!arg.empty() &&
            arg.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ"
                                  "KLMNOPQRSTUVWXYZ0123456789-_./:=,+@%") ==
                std::string::npos) {
            line += arg;
            continue;
        }
        line += '"';
        for (const char ch : arg) {
            if (ch == '"' || ch == '\\' || ch == '$' || ch == '`')
                line += '\\';
            line += ch;
        }
        line += '"';
    }
    return line;
}

} // namespace tpnet
