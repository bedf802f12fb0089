/**
 * @file
 * Command-line option parser for the tools and benches, and the
 * command-line form of SimConfig that the tools share.
 *
 * The parser supports `--name value`, `--name=value`, boolean flags
 * (`--flag` / `--flag=0`), and generated `--help` text. Numbers must be
 * spelled out in full: trailing characters, a fraction for an integer,
 * or a sign on an unsigned value is a bad value, not a prefix.
 *
 * configRows() declares every SimConfig field a tool accepts exactly
 * once: its spelling, help text, parser and formatter. A tool binds
 * the rows its run reads through ConfigOptions, which also remembers
 * the given values so campaign tools can reapply them to each grid
 * cell, and prints a config back as command-line text for replay
 * lines.
 */

#ifndef TPNET_SIM_OPTIONS_HPP
#define TPNET_SIM_OPTIONS_HPP

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace tpnet {

/** Strict parses of one option value; false on any malformed text. */
bool parseValue(const std::string &text, bool *out);
bool parseValue(const std::string &text, int *out);
bool parseValue(const std::string &text, std::uint64_t *out);
bool parseValue(const std::string &text, double *out);

/**
 * Option-value text that parseValue() reads back exactly (the double
 * overload is declared in sim/config.hpp).
 */
std::string formatValue(bool v);
std::string formatValue(int v);
std::string formatValue(std::uint64_t v);

/** Declarative command-line parser. */
class OptionParser
{
  public:
    /**
     * Applies one option value; returns false to reject it, optionally
     * with a reason in *why.
     */
    using Setter =
        std::function<bool(const std::string &value, std::string *why)>;

    OptionParser(std::string program, std::string description);

    /**
     * Register `--name`. @p hint is the value placeholder shown in the
     * usage text; an empty hint makes a flag whose value is optional.
     * Registering a name twice is a programming error and panics.
     */
    void add(const std::string &name, const std::string &hint,
             const std::string &help, Setter set);

    void addFlag(const std::string &name, const std::string &help,
                 bool *target);
    void addInt(const std::string &name, const std::string &help,
                int *target);
    void addUint64(const std::string &name, const std::string &help,
                   std::uint64_t *target);
    void addDouble(const std::string &name, const std::string &help,
                   double *target);
    void addString(const std::string &name, const std::string &help,
                   std::string *target);

    /**
     * Register the standard `--jobs` knob shared by every tool and
     * bench: worker threads for sweeps / campaign grids (0 = the
     * TPNET_JOBS environment variable, else all hardware threads).
     * Results are bit-identical for every value.
     */
    void addJobs(int *target);

    /**
     * Parse argv. On failure, @p error (if non-null) receives a
     * message. `--help` sets helpRequested() and returns true.
     */
    bool parse(int argc, const char *const *argv,
               std::string *error = nullptr);

    bool helpRequested() const { return helpRequested_; }

    /**
     * parse() for a program's main(): on an error print it and the
     * usage to stderr and return @p error_status; after --help print
     * the usage and return 0; otherwise return nullopt to go on.
     */
    std::optional<int> parseOrExit(int argc, const char *const *argv,
                                   int error_status);

    /** True when `--name` appeared on the parsed command line. */
    bool given(const std::string &name) const;

    /** Generated usage text. */
    std::string usage() const;

  private:
    struct Option
    {
        std::string name;
        std::string hint;
        std::string help;
        Setter set;
        bool given = false;
    };

    Option *find(const std::string &name);

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    bool helpRequested_ = false;
};

/** One command-line option of SimConfig (see configRows()). */
struct ConfigRow
{
    const char *name;  ///< spelling, without the leading "--"
    const char *hint;  ///< usage placeholder; "" for a flag
    const char *help;
    bool (*parse)(const std::string &value, SimConfig *cfg,
                  std::string *why);
    /// Value text of @p cfg's field; flags give "1" when set.
    std::string (*format)(const SimConfig &cfg);
};

/** The command-line form of SimConfig: one row per option. */
const std::vector<ConfigRow> &configRows();

/**
 * Set the SimConfig field spelled @p name (a configRows() name) from
 * option text, as the command line would.
 */
bool setConfigOption(SimConfig *cfg, const std::string &name,
                     const std::string &value, std::string *why);

/**
 * The configRows() a tool binds. Parsing records each given value;
 * applyTo() replays them, in command-line order, onto any config.
 */
class ConfigOptions
{
  public:
    ConfigOptions() = default;
    ConfigOptions(const ConfigOptions &) = delete;
    ConfigOptions &operator=(const ConfigOptions &) = delete;

    /**
     * Register the rows named in @p names (every row when empty) with
     * @p parser, in table order. This object must outlive the parse.
     */
    void bind(OptionParser &parser,
              std::initializer_list<const char *> names = {});

    /** Apply every given value to @p cfg. */
    void applyTo(SimConfig *cfg) const;

    /**
     * Arguments that turn @p reference into @p cfg over the bound
     * rows: one `--name value` (or flag) per row whose value differs.
     */
    std::vector<std::string> format(const SimConfig &cfg,
                                    const SimConfig &reference) const;

  private:
    std::vector<const ConfigRow *> rows_;
    std::vector<std::pair<const ConfigRow *, std::string>> given_;
};

/** Join arguments into one shell line, quoting words that need it. */
std::string joinArgs(const std::vector<std::string> &args);

} // namespace tpnet

#endif // TPNET_SIM_OPTIONS_HPP
