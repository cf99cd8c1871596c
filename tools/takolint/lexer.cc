/**
 * @file
 * takolint's C++ lexer. Deliberately small: it produces exactly the
 * token stream the rules need (identifiers, literals, punctuation) and
 * keeps comments/preprocessor lines on a side channel so `#include
 * <unordered_map>` never looks like container usage and suppression
 * comments stay attached to their lines.
 */

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lint.hh"

namespace takolint
{

namespace
{

/** Multi-char operators the rules care about keeping whole ("->" must
 *  not decay into '-' '>' or template-argument balancing breaks). */
const char *const kMultiOps[] = {
    "->*", "<<=", ">>=", "<=>", "...", "::", "->", "++", "--", "<<",
    ">>",  "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=",
    "/=",  "%=",  "&=",  "|=",  "^=",
};

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Length of a raw-string prefix (`R"`, `u8R"`, `uR"`, `UR"`, `LR"`)
 * starting at @p i, up to and including the quote; 0 when @p i does not
 * start a raw string literal.
 */
std::size_t
rawStringPrefix(const std::string &src, std::size_t i)
{
    static const char *const prefixes[] = {"u8R\"", "uR\"", "UR\"",
                                           "LR\"", "R\""};
    for (const char *p : prefixes) {
        const std::size_t len = std::char_traits<char>::length(p);
        if (src.compare(i, len, p) == 0)
            return len;
    }
    return 0;
}

/** Parse `takolint: ok(RULE, reason)` out of a comment's text. */
void
parseSuppressions(const std::string &text, int line,
                  std::vector<Suppression> &out)
{
    const std::string tag = "takolint: ok(";
    std::size_t pos = 0;
    while ((pos = text.find(tag, pos)) != std::string::npos) {
        std::size_t p = pos + tag.size();
        std::size_t close = text.find(')', p);
        if (close == std::string::npos)
            break;
        // Reasons may themselves contain '(' ... ')': take the last ')'.
        std::size_t last = text.rfind(')');
        if (last != std::string::npos && last > close)
            close = last;
        std::string body = text.substr(p, close - p);
        Suppression s;
        s.line = line;
        std::size_t comma = body.find(',');
        if (comma == std::string::npos) {
            s.rule = body;
        } else {
            s.rule = body.substr(0, comma);
            std::size_t r = body.find_first_not_of(" \t", comma + 1);
            if (r != std::string::npos)
                s.reason = body.substr(r);
        }
        // Trim the rule id.
        while (!s.rule.empty() && std::isspace(static_cast<unsigned char>(
                                      s.rule.back())))
            s.rule.pop_back();
        while (!s.rule.empty() && std::isspace(static_cast<unsigned char>(
                                      s.rule.front())))
            s.rule.erase(s.rule.begin());
        if (!s.rule.empty())
            out.push_back(std::move(s));
        pos = close + 1;
    }
}

} // namespace

SourceFile
lex(const std::string &path, const std::string &src)
{
    SourceFile out;
    out.path = path;

    std::size_t i = 0;
    const std::size_t n = src.size();
    int line = 1;
    bool atLineStart = true;

    auto push = [&](Tok kind, std::string text, int tline) {
        if (kind != Tok::Comment && kind != Tok::Preproc)
            out.sig.push_back(static_cast<int>(out.tokens.size()));
        out.tokens.push_back(Token{kind, std::move(text), tline});
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Preprocessor directive: swallow to end of line, honoring
        // backslash continuations, as one opaque token.
        if (c == '#' && atLineStart) {
            const int start = line;
            std::string text;
            while (i < n) {
                if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
                    i += 2;
                    ++line;
                    continue;
                }
                if (src[i] == '\n')
                    break;
                text += src[i++];
            }
            push(Tok::Preproc, std::move(text), start);
            continue;
        }
        atLineStart = false;

        // Comments (kept: suppressions live here).
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const int start = line;
            std::size_t e = src.find('\n', i);
            if (e == std::string::npos)
                e = n;
            std::string text = src.substr(i, e - i);
            parseSuppressions(text, start, out.suppressions);
            push(Tok::Comment, std::move(text), start);
            i = e;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const int start = line;
            std::size_t e = src.find("*/", i + 2);
            if (e == std::string::npos)
                e = n;
            else
                e += 2;
            std::string text = src.substr(i, e - i);
            for (char ch : text)
                if (ch == '\n')
                    ++line;
            // Attach a block comment's suppressions to its *last* line,
            // so `/* takolint: ok(...) */` above a statement works.
            parseSuppressions(text, line, out.suppressions);
            push(Tok::Comment, std::move(text), start);
            i = e;
            continue;
        }

        // Raw string literal: [u8|u|U|L]R"delim( ... )delim". Must win
        // over the identifier branch or `u8R"(...)"` mis-lexes as the
        // identifier `u8R` followed by a broken normal string.
        if (const std::size_t plen = rawStringPrefix(src, i)) {
            const int start = line;
            std::size_t p = i + plen;
            std::string delim;
            while (p < n && src[p] != '(')
                delim += src[p++];
            const std::string close = ")" + delim + "\"";
            std::size_t e = src.find(close, p);
            e = (e == std::string::npos) ? n : e + close.size();
            std::string text = src.substr(i, e - i);
            for (char ch : text)
                if (ch == '\n')
                    ++line;
            push(Tok::String, std::move(text), start);
            i = e;
            continue;
        }

        // String / char literals with escapes.
        if (c == '"' || c == '\'') {
            const int start = line;
            std::size_t p = i + 1;
            while (p < n && src[p] != c) {
                if (src[p] == '\\' && p + 1 < n)
                    ++p;
                else if (src[p] == '\n')
                    ++line;
                ++p;
            }
            if (p < n)
                ++p;
            push(c == '"' ? Tok::String : Tok::CharLit,
                 src.substr(i, p - i), start);
            i = p;
            continue;
        }

        if (identStart(c)) {
            std::size_t p = i + 1;
            while (p < n && identChar(src[p]))
                ++p;
            push(Tok::Ident, src.substr(i, p - i), line);
            i = p;
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t p = i + 1;
            while (p < n && (identChar(src[p]) || src[p] == '.' ||
                             src[p] == '\''))
                ++p;
            push(Tok::Number, src.substr(i, p - i), line);
            i = p;
            continue;
        }

        // Punctuation: longest-match the multi-char operators.
        std::string op(1, c);
        for (const char *m : kMultiOps) {
            const std::size_t len = std::char_traits<char>::length(m);
            if (src.compare(i, len, m) == 0) {
                op = m;
                break;
            }
        }
        push(Tok::Punct, op, line);
        i += op.size();
    }
    return out;
}

SourceFile
lexFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error(path + ": cannot open");
    std::ostringstream ss;
    ss << in.rdbuf();
    return lex(path, ss.str());
}

} // namespace takolint
