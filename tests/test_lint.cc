/**
 * @file
 * takolint unit tests: lexer behavior, suppression parsing, the rule
 * engine against inline snippets, and the golden fixtures under
 * tests/lint_fixtures/. Fixture files annotate every seeded violation
 * with `// takolint-expect: RULE` on the same line; the tests assert
 * the (rule, line) sets match exactly, so a takolint that goes blind
 * (or noisy) fails here before it fails in CI.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "lint.hh"

using takolint::Config;
using takolint::Report;
using takolint::Tok;

namespace
{

/** Lint one in-memory snippet as if it were model code. */
Report
lintSnippet(const std::string &src, Config cfg = {})
{
    cfg.assumeModelCode = true;
    std::vector<takolint::SourceFile> files{takolint::lex("snippet.cc",
                                                          src)};
    return takolint::lint(files, cfg);
}

std::set<std::string>
activeRules(const Report &r)
{
    std::set<std::string> out;
    for (const auto &f : r.findings)
        if (!f.suppressed)
            out.insert(f.rule);
    return out;
}

/** (rule, line) pairs promised by `takolint-expect:` fixture markers. */
std::set<std::pair<std::string, int>>
expectedMarks(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::set<std::pair<std::string, int>> out;
    std::string lineText;
    int line = 0;
    const std::string tag = "takolint-expect:";
    while (std::getline(in, lineText)) {
        ++line;
        auto pos = lineText.find(tag);
        if (pos == std::string::npos)
            continue;
        std::istringstream ss(lineText.substr(pos + tag.size()));
        std::string rule;
        while (ss >> rule)
            out.emplace(rule, line);
    }
    return out;
}

} // namespace

TEST(Lexer, StripsCommentsAndPreprocFromSignificantStream)
{
    auto sf = takolint::lex("x.cc",
                            "#include <unordered_map>\n"
                            "// unordered_map in a comment\n"
                            "int x; /* unordered_map */\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        EXPECT_NE(t.text, "unordered_map");
        EXPECT_TRUE(t.kind != Tok::Comment && t.kind != Tok::Preproc);
    }
}

TEST(Lexer, KeepsMultiCharOperatorsWhole)
{
    auto sf = takolint::lex("x.cc", "a->b; c::d; e >>= 2;");
    std::set<std::string> ops;
    for (const auto &t : sf.tokens)
        if (t.kind == Tok::Punct)
            ops.insert(t.text);
    EXPECT_TRUE(ops.count("->"));
    EXPECT_TRUE(ops.count("::"));
    EXPECT_TRUE(ops.count(">>="));
}

TEST(Lexer, StringsAndRawStringsAreOpaque)
{
    auto sf = takolint::lex(
        "x.cc", "const char *s = \"rand() getenv\";\n"
                "const char *r = R\"(std::unordered_map)\";\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        if (t.kind == Tok::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "getenv");
        }
    }
}

TEST(Lexer, DigitSeparatorsStayOneNumberToken)
{
    auto sf = takolint::lex("x.cc", "long n = 1'000'000;");
    int numbers = 0;
    for (const auto &t : sf.tokens) {
        if (t.kind == Tok::Number) {
            ++numbers;
            EXPECT_EQ(t.text, "1'000'000");
        }
    }
    EXPECT_EQ(numbers, 1);
}

TEST(Lexer, PrefixedRawStringsAreOpaque)
{
    auto sf = takolint::lex("x.cc",
                            "auto a = u8R\"(rand() getenv)\";\n"
                            "auto b = LR\"x(unordered_map)x\";\n"
                            "auto c = uR\"(static int bad;)\";\n");
    for (int idx : sf.sig) {
        const auto &t = sf.tokens[idx];
        if (t.kind == Tok::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "unordered_map");
            EXPECT_NE(t.text, "static");
            // The prefix must not split off as its own identifier.
            EXPECT_NE(t.text, "u8R");
            EXPECT_NE(t.text, "LR");
            EXPECT_NE(t.text, "uR");
        }
    }
}

TEST(Lexer, SpaceshipStaysWholeAndCoAwaitStaysAnIdent)
{
    auto sf = takolint::lex("x.cc", "bool b = (x<=>y) < 0; co_await*p;");
    bool sawSpaceship = false, sawCoAwait = false;
    for (std::size_t i = 0; i < sf.tokens.size(); ++i) {
        const auto &t = sf.tokens[i];
        if (t.kind == Tok::Punct && t.text == "<=>")
            sawSpaceship = true;
        if (t.kind == Tok::Ident && t.text == "co_await")
            sawCoAwait = true;
        // `<=>` must never decay into `<=` `>` (which would unbalance
        // template-argument matching).
        if (t.text == "<=") {
            EXPECT_NE(sf.tokens[i + 1].text, ">");
        }
    }
    EXPECT_TRUE(sawSpaceship);
    EXPECT_TRUE(sawCoAwait);
}

TEST(Lexer, ParsesSuppressionsWithReasons)
{
    auto sf = takolint::lex("x.cc",
                            "// takolint: ok(D1, sorted before use)\n"
                            "int x;\n"
                            "/* takolint: ok(L2) */\n");
    ASSERT_EQ(sf.suppressions.size(), 2u);
    EXPECT_EQ(sf.suppressions[0].rule, "D1");
    EXPECT_EQ(sf.suppressions[0].reason, "sorted before use");
    EXPECT_EQ(sf.suppressions[0].line, 1);
    EXPECT_EQ(sf.suppressions[1].rule, "L2");
    EXPECT_EQ(sf.suppressions[1].reason, "");
}

TEST(Rules, D2FlagsHostEntropy)
{
    auto r = lintSnippet("int f() { return rand(); }\n");
    EXPECT_EQ(activeRules(r), std::set<std::string>{"D2"});
}

TEST(Rules, D2IgnoresMemberFunctionsNamedLikeHostCalls)
{
    // `eq.time()` is a method call, not ::time(); only the bare call is
    // host entropy.
    auto r = lintSnippet("int f(Clock &eq) { return eq.time(); }\n");
    EXPECT_TRUE(activeRules(r).empty());
}

TEST(Rules, L1FlagsRefCaptureOnlyForDeferredCalls)
{
    auto flagged = lintSnippet(
        "void f(EventQueue &eq) { int n = 0;\n"
        "  eq.schedule(1, [&n]() { ++n; }); }\n");
    EXPECT_EQ(activeRules(flagged), std::set<std::string>{"L1"});

    // Immediate algorithms may capture by reference freely.
    auto clean = lintSnippet(
        "void f(std::vector<int> &v) { int n = 0;\n"
        "  std::for_each(v.begin(), v.end(), [&n](int) { ++n; }); }\n");
    EXPECT_FALSE(activeRules(clean).count("L1"));
}

TEST(Rules, SuppressionOnSameLineAndLineAboveBothApply)
{
    auto sameLine = lintSnippet(
        "int f() { return rand(); } // takolint: ok(D2, test)\n");
    ASSERT_EQ(sameLine.findings.size(), 1u);
    EXPECT_TRUE(sameLine.findings[0].suppressed);
    EXPECT_EQ(sameLine.findings[0].suppressReason, "test");
    EXPECT_EQ(sameLine.activeCount(), 0);

    auto lineAbove = lintSnippet("// takolint: ok(D2, test)\n"
                                 "int f() { return rand(); }\n");
    ASSERT_EQ(lineAbove.findings.size(), 1u);
    EXPECT_TRUE(lineAbove.findings[0].suppressed);
}

TEST(Rules, NoSuppressModeIgnoresSuppressions)
{
    Config cfg;
    cfg.honorSuppressions = false;
    auto r = lintSnippet(
        "int f() { return rand(); } // takolint: ok(D2, test)\n", cfg);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_FALSE(r.findings[0].suppressed);
    EXPECT_EQ(r.activeCount(), 1);
}

TEST(Rules, UnusedSuppressionsAreReported)
{
    auto r = lintSnippet("// takolint: ok(D1, nothing here needs it)\n"
                         "int x;\n");
    ASSERT_EQ(r.unusedSuppressions.size(), 1u);
    EXPECT_EQ(r.unusedSuppressions[0].rule, "D1");
    EXPECT_EQ(r.unusedSuppressions[0].line, 1);
}

TEST(Rules, RuleFilterRestrictsChecking)
{
    Config cfg;
    cfg.rules.insert("L1");
    auto r = lintSnippet("int f() { return rand(); }\n", cfg);
    EXPECT_TRUE(r.findings.empty());
}

TEST(FlowRules, UnusedSuppressionsDedupedPerFileLineRule)
{
    // Two comments on one line carrying the same (rule) suppression:
    // still exactly one unused-suppression report.
    auto r = lintSnippet(
        "/* takolint: ok(D1, a) */ /* takolint: ok(D1, b) */\n"
        "int x;\n");
    ASSERT_EQ(r.unusedSuppressions.size(), 1u);
    EXPECT_EQ(r.unusedSuppressions[0].rule, "D1");
    EXPECT_EQ(r.unusedSuppressions[0].line, 1);
}

TEST(ModelPath, OnlyModelDirectoriesAreChecked)
{
    EXPECT_TRUE(takolint::isModelPath("src/mem/memory_system.cc"));
    EXPECT_TRUE(takolint::isModelPath("/repo/src/sim/event_queue.hh"));
    EXPECT_TRUE(takolint::isModelPath("src/tako/engine.cc"));
    EXPECT_FALSE(takolint::isModelPath("tools/takobench.cc"));
    EXPECT_FALSE(takolint::isModelPath("tests/test_sim.cc"));
}

/**
 * Golden fixtures: every `takolint-expect: RULE` marker in bad/ must
 * produce exactly one active finding at that (rule, line), and nothing
 * else may fire. ok/ must be completely clean.
 */
class Fixtures : public ::testing::Test
{
  protected:
    static std::string
    dir(const std::string &leaf)
    {
        return std::string(LINT_FIXTURES_DIR) + "/" + leaf;
    }
};

TEST_F(Fixtures, BadFilesProduceExactlyTheExpectedFindings)
{
    Config cfg;
    cfg.assumeModelCode = true;
    auto report = takolint::lintPaths({dir("bad")}, cfg);
    EXPECT_GT(report.filesScanned, 0);

    std::set<std::pair<std::string, int>> expected;
    for (const auto &path : takolint::collectSources({dir("bad")}))
        for (auto &[rule, line] : expectedMarks(path))
            expected.emplace(rule, line);
    ASSERT_FALSE(expected.empty());

    std::set<std::pair<std::string, int>> got;
    for (const auto &f : report.findings) {
        EXPECT_FALSE(f.suppressed)
            << f.file << ":" << f.line << " unexpectedly suppressed";
        got.emplace(f.rule, f.line);
    }

    for (const auto &e : expected)
        EXPECT_TRUE(got.count(e)) << "missing finding " << e.first
                                  << " at line " << e.second;
    for (const auto &g : got)
        EXPECT_TRUE(expected.count(g))
            << "unexpected finding " << g.first << " at line "
            << g.second;

    // Every rule must be exercised by the bad fixtures.
    EXPECT_EQ(activeRules(report),
              (std::set<std::string>{"D1", "D2", "L1", "L2", "S1",
                                     "X1"}));
}

TEST_F(Fixtures, OkFilesAreCleanAndSuppressionsAllUsed)
{
    Config cfg;
    cfg.assumeModelCode = true;
    auto report = takolint::lintPaths({dir("ok")}, cfg);
    EXPECT_GT(report.filesScanned, 0);
    for (const auto &f : report.findings)
        EXPECT_TRUE(f.suppressed)
            << takolint::format(f) << " should be clean or suppressed";
    EXPECT_EQ(report.activeCount(), 0);
    for (const auto &u : report.unusedSuppressions)
        ADD_FAILURE() << u.file << ":" << u.line
                      << ": unused suppression for " << u.rule;
    // The ok fixtures must demonstrate real suppressions, not just
    // clean code.
    EXPECT_FALSE(report.findings.empty());
}
