#include "lexer.hh"

#include <algorithm>
#include <cctype>

namespace shrimp::analyze
{

namespace
{

/** Multi-character operators lexed as one token. `>>` is deliberately
 *  absent: templates of templates (`vector<vector<T>>`) must close as
 *  two `>` tokens for the template-argument scanner to stay balanced,
 *  and nothing downstream cares about shift-right. */
const char *const twoCharOps[] = {
    "::", "->", "<<", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
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

/** The identifier starting at or after @p from in @p s (leading
 *  blanks skipped), or "" when none starts there. */
std::string
wordAt(const std::string &s, std::size_t from)
{
    while (from < s.size() &&
           std::isspace(static_cast<unsigned char>(s[from])))
        ++from;
    std::size_t end = from;
    while (end < s.size() && identChar(s[end]))
        ++end;
    return s.substr(from, end - from);
}

/** Mine a comment for `analyze: allow(rule)` / `analyze: free`
 *  annotations (several may appear in one comment). */
void
mineComment(const std::string &text, int line, SourceFile &out)
{
    std::size_t at = 0;
    while ((at = text.find("analyze:", at)) != std::string::npos) {
        // Attribute the annotation to the comment line it is written
        // on, not the comment's first line.
        const int atLine =
            line + int(std::count(text.begin(),
                                  text.begin() + long(at), '\n'));
        std::size_t p = at + 8;
        while (p < text.size() && text[p] == ' ')
            ++p;
        if (text.compare(p, 4, "free") == 0) {
            out.annotations.push_back({atLine, "charged-time"});
        } else if (text.compare(p, 5, "allow") == 0) {
            const std::size_t open = text.find('(', p);
            const std::size_t close =
                open == std::string::npos ? open : text.find(')', open);
            if (close != std::string::npos && close > open + 1)
                out.annotations.push_back(
                    {atLine, text.substr(open + 1, close - open - 1)});
        }
        at = p;
    }
}

} // namespace

bool
SourceFile::allows(int line, const std::string &rule) const
{
    // An annotation covers its own line and up to three lines below:
    // justifications are usually multi-line comments sitting directly
    // above the code they excuse.
    for (const Annotation &a : annotations)
        if (a.line <= line && line <= a.line + 3 &&
            (a.rule == rule || a.rule == "*"))
            return true;
    return false;
}

const SourceFile *
Project::file(const std::string &rel) const
{
    for (const SourceFile &f : files)
        if (f.rel == rel)
            return &f;
    return nullptr;
}

void
lexFile(const std::string &text, SourceFile &out)
{
    std::size_t i = 0;
    const std::size_t n = text.size();
    int line = 1;
    int directives = 0; // preprocessor lines seen so far

    auto peek = [&](std::size_t k) -> char {
        return i + k < n ? text[i + k] : '\0';
    };

    while (i < n) {
        const char c = text[i];

        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }

        // Comments: dropped, but mined for annotations first.
        if (c == '/' && peek(1) == '/') {
            std::size_t end = text.find('\n', i);
            if (end == std::string::npos)
                end = n;
            mineComment(text.substr(i, end - i), line, out);
            i = end;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            std::size_t end = text.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            else
                end += 2;
            const std::string body = text.substr(i, end - i);
            mineComment(body, line, out);
            for (char bc : body)
                if (bc == '\n')
                    ++line;
            i = end;
            continue;
        }

        // Preprocessor lines: record #include targets and the guard (the
        // first directive when it is an #ifndef, and the #define right
        // after it), skip the rest (macro bodies would otherwise confuse
        // the parser). Continuation lines (trailing backslash) are
        // consumed too.
        if (c == '#') {
            std::size_t end = i;
            while (end < n) {
                std::size_t nl = text.find('\n', end);
                if (nl == std::string::npos) {
                    end = n;
                    break;
                }
                std::size_t back = nl;
                while (back > end && (text[back - 1] == ' ' ||
                                      text[back - 1] == '\t' ||
                                      text[back - 1] == '\r'))
                    --back;
                if (back > end && text[back - 1] == '\\') {
                    end = nl + 1;
                    continue;
                }
                end = nl;
                break;
            }
            const std::string dline = text.substr(i, end - i);
            const std::string directive = wordAt(dline, 1);
            const std::size_t after =
                dline.find(directive, 1) + directive.size();
            if (directive == "include") {
                const std::size_t open = dline.find_first_of("\"<", after);
                const std::size_t close =
                    open == std::string::npos
                        ? open
                        : dline.find(dline[open] == '"' ? '"' : '>',
                                     open + 1);
                if (close != std::string::npos)
                    (dline[open] == '"' ? out.includes : out.sysIncludes)
                        .emplace_back(line, dline.substr(
                                                open + 1, close - open - 1));
            } else if (directive == "ifndef" && directives == 0) {
                out.guardLine = line;
                out.guardIfndef = wordAt(dline, after);
            } else if (directive == "define" && directives == 1 &&
                       !out.guardIfndef.empty()) {
                out.guardDefine = wordAt(dline, after);
            }
            ++directives;
            for (char bc : dline)
                if (bc == '\n')
                    ++line;
            i = end;
            continue;
        }

        // String / char literals (raw strings included); contents
        // dropped, one Str token kept so statements stay shaped.
        if (c == '"' || c == '\'' ||
            (c == 'R' && peek(1) == '"')) {
            if (c == 'R') {
                std::size_t open = text.find('(', i + 2);
                if (open == std::string::npos) {
                    ++i;
                    continue;
                }
                const std::string delim =
                    ")" + text.substr(i + 2, open - i - 2) + "\"";
                std::size_t end = text.find(delim, open + 1);
                end = end == std::string::npos ? n : end + delim.size();
                for (std::size_t k = i; k < end; ++k)
                    if (text[k] == '\n')
                        ++line;
                out.toks.push_back({Tok::Str, "\"\"", line});
                i = end;
                continue;
            }
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n && text[j] != quote) {
                if (text[j] == '\\')
                    ++j;
                else if (text[j] == '\n')
                    ++line; // unterminated tolerated
                ++j;
            }
            out.toks.push_back(
                {Tok::Str, quote == '"' ? "\"\"" : "''", line});
            i = j < n ? j + 1 : n;
            continue;
        }

        if (identStart(c)) {
            std::size_t j = i + 1;
            while (j < n && identChar(text[j]))
                ++j;
            out.toks.push_back({Tok::Ident, text.substr(i, j - i), line});
            i = j;
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i + 1;
            // Digit separators (200'000) are part of the literal; a
            // stray `'` here must not open a char literal and swallow
            // everything up to the next apostrophe in the file.
            while (j < n &&
                   (identChar(text[j]) || text[j] == '.' ||
                    (text[j] == '\'' && j + 1 < n &&
                     identChar(text[j + 1])) ||
                    ((text[j] == '+' || text[j] == '-') &&
                     (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                      text[j - 1] == 'p' || text[j - 1] == 'P'))))
                ++j;
            out.toks.push_back({Tok::Number, text.substr(i, j - i), line});
            i = j;
            continue;
        }

        // Punctuation.
        for (const char *op : twoCharOps) {
            if (c == op[0] && peek(1) == op[1]) {
                out.toks.push_back({Tok::Punct, op, line});
                i += 2;
                goto next;
            }
        }
        out.toks.push_back({Tok::Punct, std::string(1, c), line});
        ++i;
      next:;
    }

    out.toks.push_back({Tok::End, "", line});
}

} // namespace shrimp::analyze
