/**
 * @file
 * takolint: a determinism & lifetime static-analysis pass for tako-sim.
 *
 * A compiled C++20 linter with its own lexer and lightweight parser (no
 * libclang, no external deps) that enforces the project invariants the
 * quick suite's bit-identity gate depends on:
 *
 *   D1  no unordered-container state or iteration in model code
 *       (src/mem, src/tako, src/noc, src/sim, src/morphs, src/prof):
 *       hash order leaks into simulated behavior the moment anyone
 *       iterates, so model-side tables must be ordered containers or
 *       sorted drains.
 *   D2  no wall-clock, rand(), or getenv() reads on the simulated path:
 *       host state must never influence simulated time.
 *   L1  no by-reference lambda captures in callables passed to
 *       EventQueue::schedule/scheduleAbs or spawn(): the callable runs
 *       at a later tick, after the capturing frame is gone (PR 4's
 *       inline-storage EventQueue made this a silent use-after-scope).
 *   L2  no raw new/delete (or make_unique) of pooled types (EventNode):
 *       nodes must cycle through EventPool's free list.
 *   S1  stats resolved via cached handle() pointers at construction,
 *       not string lookups inside per-access code: registry calls are
 *       only allowed in constructors/destructors and finalize().
 *   X1  no static-duration mutable state in model code: ensemble
 *       replicas (takosim --replicate) run concurrently in one process,
 *       so anything shared must be immutable (const/constexpr/
 *       constinit), per-thread (thread_local), or per-instance.
 *       Heuristic on the `static` keyword; unmarked namespace-scope
 *       globals are a known blind spot.
 *
 * Any site can opt out with an explicit, reasoned suppression on the
 * same line or the line above:
 *
 *     // takolint: ok(D1, drained into a sorted vector below)
 *
 * Diagnostics are GCC-style `file:line: rule: message`; the driver also
 * emits a `takolint-v3` JSON report (see tools/validate_takolint.py).
 */

#ifndef TAKO_TOOLS_TAKOLINT_LINT_HH
#define TAKO_TOOLS_TAKOLINT_LINT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace takolint
{

/** Token kinds; Comment/Preproc are off the significant stream. */
enum class Tok
{
    Ident,
    Number,
    String,
    CharLit,
    Punct,
    Comment,
    Preproc,
};

struct Token
{
    Tok kind;
    std::string text;
    int line = 0;
};

/** One `takolint: ok(RULE, reason)` comment. */
struct Suppression
{
    std::string rule;
    std::string reason;
    int line = 0;   ///< line of the comment itself
    bool used = false;
};

/** A lexed source file plus its suppression comments. */
struct SourceFile
{
    std::string path;            ///< as passed (used in diagnostics)
    std::vector<Token> tokens;   ///< full stream, comments included
    std::vector<int> sig;        ///< indices of significant tokens
    std::vector<Suppression> suppressions;
};

/** Lex @p source (contents of @p path) into tokens + suppressions. */
SourceFile lex(const std::string &path, const std::string &source);

/** Read and lex a file; throws std::runtime_error on I/O failure. */
SourceFile lexFile(const std::string &path);

struct Finding
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;
    bool suppressed = false;
    std::string suppressReason; ///< set when suppressed
};

struct UnusedSuppression
{
    std::string file;
    int line = 0;
    std::string rule;
};

struct Config
{
    /** Treat every scanned file as model code (fixture runs). */
    bool assumeModelCode = false;
    /** Honor `takolint: ok(...)` comments (off to audit them). */
    bool honorSuppressions = true;
    /** Restrict to these rule ids; empty = all rules. */
    std::set<std::string> rules;
};

struct Report
{
    std::vector<Finding> findings; ///< active + suppressed, file order
    std::vector<UnusedSuppression> unusedSuppressions;
    int filesScanned = 0;

    /** Findings that are not suppressed (what gates the exit code). */
    int
    activeCount() const
    {
        int n = 0;
        for (const auto &f : findings)
            n += f.suppressed ? 0 : 1;
        return n;
    }
};

/** Rule id -> one-line description, for --list-rules and the report. */
const std::map<std::string, std::string> &ruleDescriptions();

/** True when @p path lies in a model-code directory (see D1 above). */
bool isModelPath(const std::string &path);

/**
 * Expand files/directories into a sorted list of .hh/.cc sources.
 * Directories are walked recursively; build/ trees are skipped.
 */
std::vector<std::string> collectSources(const std::vector<std::string> &paths);

/** Run every enabled rule over @p files (two passes: index, check). */
Report lint(const std::vector<SourceFile> &files, const Config &cfg);

/** Convenience: lexFile() each path, then lint(). */
Report lintPaths(const std::vector<std::string> &paths, const Config &cfg);

/** GCC-style one-line rendering of @p f (no trailing newline). */
std::string format(const Finding &f);

} // namespace takolint

#endif // TAKO_TOOLS_TAKOLINT_LINT_HH
