// BentoScript: lexer, parser, interpreter, stdlib, budgets.
#include <gtest/gtest.h>

#include "script/interp.hpp"
#include "script/parser.hpp"

namespace sc = bento::script;
namespace bu = bento::util;

namespace {
/// Runs a program and returns interp for inspection.
std::unique_ptr<sc::Interpreter> run_program(const std::string& src,
                                             sc::InterpreterOptions opts = {}) {
  auto interp = std::make_unique<sc::Interpreter>(sc::parse(src), std::move(opts));
  sc::install_stdlib(*interp);
  interp->run();
  return interp;
}

/// Evaluates `expr` by assigning it to a global and reading it back.
sc::Value eval_expr(const std::string& expr) {
  auto interp = run_program("result = " + expr + "\n");
  return interp->global("result");
}
}  // namespace

// ---- lexer ----

TEST(ScriptLexer, TokenizesBasics) {
  auto tokens = sc::tokenize("x = 1 + 2\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].type, sc::TokenType::Identifier);
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[1].type, sc::TokenType::Assign);
  EXPECT_EQ(tokens[2].int_value, 1);
  EXPECT_EQ(tokens[3].type, sc::TokenType::Plus);
}

TEST(ScriptLexer, IndentDedent) {
  auto tokens = sc::tokenize("if x:\n    y = 1\nz = 2\n");
  int indents = 0, dedents = 0;
  for (const auto& t : tokens) {
    indents += t.type == sc::TokenType::Indent;
    dedents += t.type == sc::TokenType::Dedent;
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(ScriptLexer, CommentsAndBlankLines) {
  auto tokens = sc::tokenize("# comment\n\nx = 1  # trailing\n");
  EXPECT_EQ(tokens[0].type, sc::TokenType::Identifier);
}

TEST(ScriptLexer, StringEscapes) {
  auto tokens = sc::tokenize("s = \"a\\nb\\t\\\"c\\\"\"\n");
  EXPECT_EQ(tokens[2].text, "a\nb\t\"c\"");
}

TEST(ScriptLexer, Errors) {
  EXPECT_THROW(sc::tokenize("s = \"unterminated\n"), sc::SyntaxError);
  EXPECT_THROW(sc::tokenize("x = 1 @ 2\n"), sc::SyntaxError);
  EXPECT_THROW(sc::tokenize("if x:\n    a = 1\n  b = 2\n"), sc::SyntaxError);
}

// ---- hostile nesting: uploads come from anonymous clients ----

namespace {
/// Parses `src` and returns the SyntaxError message ("" when it parses).
std::string parse_error(const std::string& src) {
  try {
    sc::parse(src);
  } catch (const sc::SyntaxError& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(ScriptParser, MillionDeepParenthesesAreASyntaxError) {
  // 20,000 levels used to overflow the stack.
  const std::string err = parse_error("x = " + std::string(1'000'000, '(') + "1\n");
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
}

TEST(ScriptParser, MillionDeepUnaryOperatorsAreASyntaxError) {
  std::string err = parse_error("x = " + std::string(1'000'000, '-') + "1\n");
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
  std::string nots;
  for (int i = 0; i < 1'000'000; ++i) nots += "not ";
  err = parse_error("x = " + nots + "True\n");
  EXPECT_NE(err.find("nesting deeper than"), std::string::npos) << err;
}

TEST(ScriptParser, DeepBlocksAndElifChainsCountTowardTheBound) {
  std::string blocks;
  for (int d = 0; d <= sc::kMaxNestingDepth; ++d) {
    blocks += std::string(static_cast<std::size_t>(d), ' ') + "if True:\n";
  }
  blocks += std::string(static_cast<std::size_t>(sc::kMaxNestingDepth) + 1, ' ') + "pass\n";
  EXPECT_NE(parse_error(blocks).find("nesting deeper than"), std::string::npos);

  std::string chain = "if x == 0:\n    pass\n";
  for (int i = 1; i <= sc::kMaxNestingDepth; ++i) {
    chain += "elif x == " + std::to_string(i) + ":\n    pass\n";
  }
  EXPECT_NE(parse_error(chain).find("nesting deeper than"), std::string::npos);
}

TEST(ScriptParser, NestingWithinTheBoundStillRuns) {
  const int depth = sc::kMaxNestingDepth / 4;
  const std::string parens = std::string(static_cast<std::size_t>(depth), '(') + "2" +
                             std::string(static_cast<std::size_t>(depth), ')');
  auto interp = run_program("x = -" + parens + "\ny = not not True\n");
  EXPECT_EQ(interp->global("x").as_int(), -2);
  EXPECT_TRUE(interp->global("y").as_bool());
}

TEST(ScriptLexer, MultilineParens) {
  auto interp = run_program("x = (1 +\n     2 +\n     3)\n");
  EXPECT_EQ(interp->global("x").as_int(), 6);
}

// ---- expressions ----

TEST(ScriptExpr, Arithmetic) {
  EXPECT_EQ(eval_expr("2 + 3 * 4").as_int(), 14);
  EXPECT_EQ(eval_expr("(2 + 3) * 4").as_int(), 20);
  EXPECT_EQ(eval_expr("10 / 3").as_int(), 3);
  EXPECT_EQ(eval_expr("-10 / 3").as_int(), -4);  // floor division
  EXPECT_EQ(eval_expr("10 % 3").as_int(), 1);
  EXPECT_EQ(eval_expr("-1 % 5").as_int(), 4);    // Python-style modulo
  EXPECT_DOUBLE_EQ(eval_expr("1.5 + 2").as_float(), 3.5);
  EXPECT_DOUBLE_EQ(eval_expr("7.0 / 2").as_float(), 3.5);
  EXPECT_EQ(eval_expr("-(3)").as_int(), -3);
}

TEST(ScriptExpr, DivisionByZeroThrows) {
  EXPECT_THROW(eval_expr("1 / 0"), sc::ScriptError);
  EXPECT_THROW(eval_expr("1 % 0"), sc::ScriptError);
}

TEST(ScriptExpr, Comparisons) {
  EXPECT_TRUE(eval_expr("1 < 2").as_bool());
  EXPECT_TRUE(eval_expr("2 <= 2").as_bool());
  EXPECT_FALSE(eval_expr("3 < 2").as_bool());
  EXPECT_TRUE(eval_expr("\"abc\" < \"abd\"").as_bool());
  EXPECT_TRUE(eval_expr("1 == 1.0").as_bool());
  EXPECT_TRUE(eval_expr("\"a\" != \"b\"").as_bool());
  EXPECT_TRUE(eval_expr("[1, 2] == [1, 2]").as_bool());
  EXPECT_FALSE(eval_expr("[1, 2] == [2, 1]").as_bool());
}

TEST(ScriptExpr, LogicShortCircuits) {
  // `or` returns first truthy operand; undefined call must not run.
  auto interp = run_program(R"(
called = [0]
def boom():
    called[0] = 1
    return True
x = 1 or boom()
y = 0 and boom()
)");
  EXPECT_EQ(interp->global("x").as_int(), 1);
  EXPECT_EQ(interp->global("y").as_int(), 0);
  EXPECT_EQ(interp->global("called").as_list()[0].as_int(), 0);
}

TEST(ScriptExpr, StringOps) {
  EXPECT_EQ(eval_expr("\"ab\" + \"cd\"").as_str(), "abcd");
  EXPECT_EQ(eval_expr("\"ab\" * 3").as_str(), "ababab");
  EXPECT_TRUE(eval_expr("\"ell\" in \"hello\"").as_bool());
  EXPECT_EQ(eval_expr("\"hello\"[1]").as_str(), "e");
  EXPECT_EQ(eval_expr("\"hello\"[-1]").as_str(), "o");
  EXPECT_EQ(eval_expr("\"a,b,c\".split(\",\")").as_list().size(), 3u);
  EXPECT_EQ(eval_expr("\"HeLLo\".lower()").as_str(), "hello");
  EXPECT_EQ(eval_expr("\"hello\".upper()").as_str(), "HELLO");
  EXPECT_TRUE(eval_expr("\"hello\".startswith(\"he\")").as_bool());
  EXPECT_EQ(eval_expr("\"hello\".find(\"ll\")").as_int(), 2);
  EXPECT_EQ(eval_expr("\"hello\".find(\"xyz\")").as_int(), -1);
}

TEST(ScriptExpr, ListsAndDicts) {
  EXPECT_EQ(eval_expr("[1, 2, 3][1]").as_int(), 2);
  EXPECT_EQ(eval_expr("[1, 2, 3][-1]").as_int(), 3);
  EXPECT_EQ(eval_expr("[1] + [2, 3]").as_list().size(), 3u);
  EXPECT_TRUE(eval_expr("2 in [1, 2, 3]").as_bool());
  EXPECT_EQ(eval_expr("{\"a\": 1, \"b\": 2}[\"b\"]").as_int(), 2);
  EXPECT_TRUE(eval_expr("\"a\" in {\"a\": 1}").as_bool());
  EXPECT_EQ(eval_expr("{\"a\": 7}.get(\"a\")").as_int(), 7);
  EXPECT_EQ(eval_expr("{}.get(\"x\", 42)").as_int(), 42);
  EXPECT_TRUE(eval_expr("{}.get(\"x\")").is_none());
}

TEST(ScriptExpr, IndexErrors) {
  EXPECT_THROW(eval_expr("[1][5]"), sc::ScriptError);
  EXPECT_THROW(eval_expr("{\"a\": 1}[\"b\"]"), sc::ScriptError);
  EXPECT_THROW(eval_expr("5[0]"), sc::ScriptError);
}

TEST(ScriptExpr, StdlibBuiltins) {
  EXPECT_EQ(eval_expr("len(\"hello\")").as_int(), 5);
  EXPECT_EQ(eval_expr("len([1, 2])").as_int(), 2);
  EXPECT_EQ(eval_expr("str(42)").as_str(), "42");
  EXPECT_EQ(eval_expr("int(\"17\")").as_int(), 17);
  EXPECT_EQ(eval_expr("int(3.9)").as_int(), 3);
  EXPECT_EQ(eval_expr("len(range(10))").as_int(), 10);
  EXPECT_EQ(eval_expr("range(2, 5)[0]").as_int(), 2);
  EXPECT_EQ(eval_expr("min([4, 2, 9])").as_int(), 2);
  EXPECT_EQ(eval_expr("max(4, 2, 9)").as_int(), 9);
  EXPECT_EQ(eval_expr("abs(-5)").as_int(), 5);
  EXPECT_EQ(eval_expr("sorted([3, 1, 2])[0]").as_int(), 1);
  EXPECT_EQ(eval_expr("len(bytes(10))").as_int(), 10);
  EXPECT_EQ(eval_expr("bytes(\"ab\")[0]").as_int(), 97);
  EXPECT_EQ(eval_expr("str(bytes(\"hi\"))").as_str(), "hi");
}

// ---- statements ----

TEST(ScriptStmt, IfElifElse) {
  auto interp = run_program(R"(
def grade(x):
    if x >= 90:
        return "A"
    elif x >= 80:
        return "B"
    elif x >= 70:
        return "C"
    else:
        return "F"
a = grade(95)
b = grade(85)
c = grade(71)
f = grade(0)
)");
  EXPECT_EQ(interp->global("a").as_str(), "A");
  EXPECT_EQ(interp->global("b").as_str(), "B");
  EXPECT_EQ(interp->global("c").as_str(), "C");
  EXPECT_EQ(interp->global("f").as_str(), "F");
}

TEST(ScriptStmt, WhileWithBreakContinue) {
  auto interp = run_program(R"(
total = 0
i = 0
while True:
    i += 1
    if i > 100:
        break
    if i % 2 == 0:
        continue
    total += i
)");
  EXPECT_EQ(interp->global("total").as_int(), 2500);  // sum of odd 1..99
}

TEST(ScriptStmt, ForLoop) {
  auto interp = run_program(R"(
squares = []
for i in range(5):
    squares.append(i * i)
total = 0
for s in squares:
    total += s
chars = ""
for c in "abc":
    chars = c + chars
)");
  EXPECT_EQ(interp->global("total").as_int(), 30);
  EXPECT_EQ(interp->global("chars").as_str(), "cba");
}

TEST(ScriptStmt, ForOverDictKeys) {
  auto interp = run_program(R"(
d = {"x": 1, "y": 2}
keys = []
for k in d:
    keys.append(k)
keys = sorted(keys)
)");
  auto keys = interp->global("keys").as_list();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].as_str(), "x");
}

TEST(ScriptStmt, FunctionsAndRecursion) {
  auto interp = run_program(R"(
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
result = fib(15)
)");
  EXPECT_EQ(interp->global("result").as_int(), 610);
}

TEST(ScriptStmt, LocalScopeShadowsGlobal) {
  auto interp = run_program(R"(
x = 1
def f():
    x = 99
    return x
y = f()
)");
  EXPECT_EQ(interp->global("x").as_int(), 1);
  EXPECT_EQ(interp->global("y").as_int(), 99);
}

TEST(ScriptStmt, SharedMutableState) {
  // Dicts/lists have reference semantics: handlers can keep state in a
  // global dict without rebinding (how Dropbox keeps its store).
  auto interp = run_program(R"(
state = {"count": 0}
def bump():
    state["count"] += 1
bump()
bump()
bump()
)");
  EXPECT_EQ(interp->global("state").as_dict()["count"].as_int(), 3);
}

TEST(ScriptStmt, IndexAssignment) {
  auto interp = run_program(R"(
xs = [1, 2, 3]
xs[1] = 20
xs[-1] = 30
d = {}
d["k"] = "v"
)");
  EXPECT_EQ(interp->global("xs").as_list()[1].as_int(), 20);
  EXPECT_EQ(interp->global("xs").as_list()[2].as_int(), 30);
  EXPECT_EQ(interp->global("d").as_dict()["k"].as_str(), "v");
}

TEST(ScriptStmt, ListMethods) {
  auto interp = run_program(R"(
xs = []
xs.append(1)
xs.append(2)
xs.append(3)
last = xs.pop()
first = xs.pop(0)
)");
  EXPECT_EQ(interp->global("last").as_int(), 3);
  EXPECT_EQ(interp->global("first").as_int(), 1);
  EXPECT_EQ(interp->global("xs").as_list().size(), 1u);
}

// ---- host bindings & errors ----

TEST(ScriptHost, NativeBindingsAndModules) {
  auto interp = std::make_unique<sc::Interpreter>(sc::parse(R"(
result = math.double(21)
)"));
  sc::install_stdlib(*interp);
  sc::Dict math;
  math["double"] = sc::Value::native([](sc::Interpreter&, std::vector<sc::Value>& args) {
    return sc::Value::integer(args[0].as_int() * 2);
  });
  interp->bind("math", sc::Value::dict(std::move(math)));
  interp->run();
  EXPECT_EQ(interp->global("result").as_int(), 42);
}

TEST(ScriptHost, CallScriptFunctionFromHost) {
  auto interp = run_program(R"(
def on_message(msg):
    return "echo: " + msg
)");
  auto out = interp->call("on_message", {sc::Value::str("hi")});
  EXPECT_EQ(out.as_str(), "echo: hi");
  EXPECT_TRUE(interp->has_function("on_message"));
  EXPECT_FALSE(interp->has_function("nonexistent"));
  EXPECT_THROW(interp->call("nonexistent", {}), sc::ScriptError);
}

TEST(ScriptHost, ArityMismatch) {
  auto interp = run_program("def f(a, b):\n    return a\n");
  EXPECT_THROW(interp->call("f", {sc::Value::integer(1)}), sc::ScriptError);
}

TEST(ScriptHost, PrintHook) {
  std::vector<std::string> lines;
  sc::InterpreterOptions opts;
  opts.print_hook = [&](const std::string& s) { lines.push_back(s); };
  run_program("print(\"hello\", 42)\n", std::move(opts));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "hello 42");
}

TEST(ScriptErrors, UndefinedName) {
  EXPECT_THROW(run_program("x = nope\n"), sc::ScriptError);
}

TEST(ScriptErrors, TypeErrorsSurface) {
  EXPECT_THROW(eval_expr("1 + \"a\""), sc::ScriptError);
  EXPECT_THROW(eval_expr("-\"a\""), sc::ScriptError);
  EXPECT_THROW(run_program("x = 5\nx()\n"), sc::ScriptError);
}

TEST(ScriptErrors, ParserRejectsMalformed) {
  EXPECT_THROW(sc::parse("def f(:\n    pass\n"), sc::SyntaxError);
  EXPECT_THROW(sc::parse("if x\n    pass\n"), sc::SyntaxError);
  EXPECT_THROW(sc::parse("1 + 2 = 3\n"), sc::SyntaxError);
  EXPECT_THROW(sc::parse("if x:\npass\n"), sc::SyntaxError);  // missing indent
  EXPECT_THROW(sc::parse("x = [1, 2\n"), sc::SyntaxError);
}

TEST(ScriptBudget, StepLimitEnforced) {
  sc::InterpreterOptions opts;
  opts.max_steps = 10'000;
  EXPECT_THROW(run_program("while True:\n    pass\n", std::move(opts)),
               sc::ScriptError);
}

TEST(ScriptBudget, StepHookReceivesBatches) {
  sc::InterpreterOptions opts;
  std::uint64_t reported = 0;
  opts.step_hook = [&](std::uint64_t n) { reported += n; };
  auto interp = run_program("x = 0\nfor i in range(1000):\n    x += i\n",
                            std::move(opts));
  EXPECT_GT(reported, 1000u);
  EXPECT_LE(reported, interp->steps());
}

TEST(ScriptBudget, StepHookCanAbort) {
  sc::InterpreterOptions opts;
  opts.step_hook = [](std::uint64_t) { throw std::runtime_error("cpu quota"); };
  EXPECT_THROW(run_program("while True:\n    pass\n", std::move(opts)),
               std::runtime_error);
}

TEST(ScriptBudget, RecursionLimit) {
  sc::InterpreterOptions opts;
  opts.max_call_depth = 16;
  EXPECT_THROW(run_program("def f(n):\n    return f(n + 1)\nf(0)\n", std::move(opts)),
               sc::ScriptError);
}

TEST(ScriptBudget, MemoryHookSeesHeapGrowth) {
  sc::InterpreterOptions opts;
  std::size_t peak = 0;
  opts.memory_hook = [&](std::size_t bytes) { peak = std::max(peak, bytes); };
  run_program(R"(
data = []
for i in range(2000):
    data.append("0123456789")
)",
              std::move(opts));
  EXPECT_GT(peak, 20'000u);
}

// The paper's Appendix A Browser function, transliterated: the API surface
// (requests/zlib/os/api) is bound by the host, logic is unchanged.
TEST(ScriptPaper, AppendixABrowserShape) {
  auto interp = std::make_unique<sc::Interpreter>(sc::parse(R"(
def browser(url, padding):
    body = requests.get(url)
    compressed = zlib.compress(body)
    final = compressed
    if padding - len(final) > 0:
        final = final + os.urandom(padding - len(final))
    else:
        final = final + os.urandom((len(final) + padding) % padding)
    api.send(final)
)"));
  sc::install_stdlib(*interp);

  auto sent = std::make_shared<bu::Bytes>();
  sc::Dict requests_mod, zlib_mod, os_mod, api_mod;
  requests_mod["get"] = sc::Value::native([](sc::Interpreter&, std::vector<sc::Value>& a) {
    return sc::Value::bytes(bu::to_bytes("<html>" + a[0].as_str() + "</html>"));
  });
  zlib_mod["compress"] = sc::Value::native([](sc::Interpreter&, std::vector<sc::Value>& a) {
    return a[0];  // identity stand-in for this test
  });
  os_mod["urandom"] = sc::Value::native([](sc::Interpreter&, std::vector<sc::Value>& a) {
    return sc::Value::bytes(bu::Bytes(static_cast<std::size_t>(a[0].as_int()), 0xaa));
  });
  api_mod["send"] = sc::Value::native([sent](sc::Interpreter&, std::vector<sc::Value>& a) {
    *sent = a[0].as_bytes();
    return sc::Value::none();
  });
  interp->bind("requests", sc::Value::dict(std::move(requests_mod)));
  interp->bind("zlib", sc::Value::dict(std::move(zlib_mod)));
  interp->bind("os", sc::Value::dict(std::move(os_mod)));
  interp->bind("api", sc::Value::dict(std::move(api_mod)));

  interp->call("browser", {sc::Value::str("http://x.test/"), sc::Value::integer(1000)});
  EXPECT_EQ(sent->size(), 1000u);  // padded to exactly the requested size
}
