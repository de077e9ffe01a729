// BentoScript recursive-descent parser: tokens -> Program.
#pragma once

#include <memory>
#include <string>

#include "script/ast.hpp"
#include "script/lexer.hpp"

namespace bento::script {

/// Deepest nesting of expressions and blocks the parser accepts. Uploaded
/// source comes from anonymous clients, and the parser, the analyzer and
/// the interpreter all recurse over the AST, so the bound is what keeps a
/// deeply nested upload from overflowing a box's stack.
inline constexpr int kMaxNestingDepth = 200;

/// Parses a full program. Throws SyntaxError on malformed input, including
/// nesting past kMaxNestingDepth.
std::unique_ptr<Program> parse(const std::string& source);

}  // namespace bento::script
