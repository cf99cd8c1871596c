/**
 * @file
 * takolint command-line driver.
 *
 *   takolint [options] PATH...
 *
 * PATHs are files or directories (recursed for .hh/.cc). Prints
 * GCC-style `file:line: rule: message` diagnostics for every active
 * finding and exits 1 when any exist, 0 on a clean tree, 2 on usage or
 * I/O errors. `--warn-only` reports but always exits 0 (advisory scans
 * over tools/ and bench/). `--json=FILE` additionally writes a
 * `takolint-v3` report (schema checked by tools/validate_takolint.py).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace
{

constexpr const char *kUsage = R"(usage: takolint [options] PATH...

  PATH                file or directory (recursed for .hh/.cc sources)
  --json=FILE         write a takolint-v3 JSON report
  --rules=D1,D2,...   check only these rules (default: all)
  --assume-model-code treat every file as model code (fixture runs)
  --warn-only         report findings but exit 0 (advisory scans)
  --no-suppress       ignore takolint: ok(...) comments (audit mode)
  --show-suppressed   also print suppressed findings (as notes)
  --list-rules        print the rule table and exit
  --help              this text

exit status: 0 clean, 1 findings, 2 bad invocation / unreadable input
)";

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeJson(std::ostream &os, const takolint::Report &report,
          const std::vector<std::string> &roots, bool warnOnly)
{
    os << "{\n  \"schema\": \"takolint-v3\",\n";
    os << "  \"roots\": [";
    for (std::size_t i = 0; i < roots.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(roots[i]) << '"';
    os << "],\n";
    os << "  \"files_scanned\": " << report.filesScanned << ",\n";
    os << "  \"warn_only\": " << (warnOnly ? "true" : "false") << ",\n";

    os << "  \"rules\": [";
    bool first = true;
    for (const auto &[id, desc] : takolint::ruleDescriptions()) {
        os << (first ? "" : ", ") << "\n    {\"id\": \"" << id
           << "\", \"description\": \"" << jsonEscape(desc) << "\"}";
        first = false;
    }
    os << "\n  ],\n";

    os << "  \"findings\": [";
    first = true;
    std::map<std::string, int> counts;
    for (const auto &[id, desc] : takolint::ruleDescriptions())
        counts[id] = 0;
    for (const auto &f : report.findings) {
        if (!f.suppressed)
            ++counts[f.rule];
        os << (first ? "" : ",") << "\n    {\"rule\": \"" << f.rule
           << "\", \"file\": \"" << jsonEscape(f.file)
           << "\", \"line\": " << f.line << ", \"message\": \""
           << jsonEscape(f.message) << "\", \"suppressed\": "
           << (f.suppressed ? "true" : "false");
        if (f.suppressed)
            os << ", \"reason\": \"" << jsonEscape(f.suppressReason)
               << '"';
        os << "}";
        first = false;
    }
    os << "\n  ],\n";

    os << "  \"unused_suppressions\": [";
    first = true;
    for (const auto &u : report.unusedSuppressions) {
        os << (first ? "" : ",") << "\n    {\"file\": \""
           << jsonEscape(u.file) << "\", \"line\": " << u.line
           << ", \"rule\": \"" << u.rule << "\"}";
        first = false;
    }
    os << "\n  ],\n";

    os << "  \"counts\": {";
    first = true;
    for (const auto &[id, n] : counts) {
        os << (first ? "" : ", ") << '"' << id << "\": " << n;
        first = false;
    }
    os << "},\n";
    os << "  \"exit_code\": "
       << (report.activeCount() && !warnOnly ? 1 : 0) << "\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    takolint::Config cfg;
    std::vector<std::string> paths;
    std::string jsonPath;
    bool showSuppressed = false;
    bool warnOnly = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--list-rules") {
            for (const auto &[id, desc] : takolint::ruleDescriptions())
                std::cout << id << "  " << desc << "\n";
            return 0;
        } else if (arg == "--assume-model-code") {
            cfg.assumeModelCode = true;
        } else if (arg == "--warn-only") {
            warnOnly = true;
        } else if (arg == "--no-suppress") {
            cfg.honorSuppressions = false;
        } else if (arg == "--show-suppressed") {
            showSuppressed = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            jsonPath = arg.substr(7);
        } else if (arg.rfind("--rules=", 0) == 0) {
            std::stringstream ss(arg.substr(8));
            std::string id;
            while (std::getline(ss, id, ',')) {
                if (!takolint::ruleDescriptions().count(id)) {
                    std::cerr << "takolint: unknown rule '" << id
                              << "' (see --list-rules)\n";
                    return 2;
                }
                cfg.rules.insert(id);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "takolint: unknown option '" << arg << "'\n"
                      << kUsage;
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::cerr << kUsage;
        return 2;
    }

    takolint::Report report;
    try {
        report = takolint::lintPaths(paths, cfg);
    } catch (const std::exception &e) {
        std::cerr << "takolint: " << e.what() << "\n";
        return 2;
    }
    if (report.filesScanned == 0) {
        std::cerr << "takolint: no .hh/.cc sources under given paths\n";
        return 2;
    }

    for (const auto &f : report.findings) {
        if (f.suppressed && !showSuppressed)
            continue;
        (f.suppressed ? std::cout : std::cerr)
            << takolint::format(f) << "\n";
    }
    for (const auto &u : report.unusedSuppressions)
        std::cout << u.file << ":" << u.line << ": note: unused "
                  << "suppression for " << u.rule << "\n";

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::cerr << "takolint: cannot write " << jsonPath << "\n";
            return 2;
        }
        writeJson(out, report, paths, warnOnly);
    }

    const int active = report.activeCount();
    const int suppressed =
        static_cast<int>(report.findings.size()) - active;
    std::cout << "takolint: " << report.filesScanned << " files, "
              << active << " finding" << (active == 1 ? "" : "s");
    if (suppressed)
        std::cout << " (+" << suppressed << " suppressed)";
    if (warnOnly && active)
        std::cout << " [warn-only]";
    std::cout << "\n";
    return active && !warnOnly ? 1 : 0;
}
