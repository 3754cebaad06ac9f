#include "swift/script.hh"

#include <cctype>
#include <charconv>
#include <limits>
#include <optional>
#include <vector>

namespace jets::swift {

namespace {

// --- Lexer -------------------------------------------------------------------

enum class Tok {
  kEnd, kIdent, kInt, kFloat, kString,
  kLParen, kRParen, kLBracket, kRBracket, kLBrace, kRBrace,
  kSemicolon, kComma, kAssign, kPlus, kMinus, kStar, kModMod,
  kDotDot, kEq, kNe, kLt, kGt, kLe, kGe,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  std::int64_t int_value = 0;
  double float_value = 0;
  std::size_t line = 1;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  const Token& peek() const { return current_; }
  Token take() {
    Token t = current_;
    advance();
    return t;
  }
  std::size_t line() const { return current_.line; }

 private:
  void advance() {
    skip_ws_and_comments();
    current_ = Token{};
    current_.line = line_;
    if (pos_ >= src_.size()) {
      current_.kind = Tok::kEnd;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        ++pos_;
      }
      current_.kind = Tok::kIdent;
      current_.text = src_.substr(start, pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        ++pos_;
      }
      // A lone '.' followed by a digit is a float; ".." is a range.
      if (pos_ + 1 < src_.size() && src_[pos_] == '.' &&
          std::isdigit(static_cast<unsigned char>(src_[pos_ + 1]))) {
        ++pos_;
        while (pos_ < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
          ++pos_;
        }
        current_.kind = Tok::kFloat;
        current_.text = src_.substr(start, pos_ - start);
        current_.float_value = literal<double>();
        return;
      }
      current_.kind = Tok::kInt;
      current_.text = src_.substr(start, pos_ - start);
      current_.int_value = literal<std::int64_t>();
      return;
    }
    if (c == '"') {
      ++pos_;
      std::size_t start = pos_;
      while (pos_ < src_.size() && src_[pos_] != '"') ++pos_;
      if (pos_ >= src_.size()) throw ScriptError(line_, "unterminated string");
      current_.kind = Tok::kString;
      current_.text = src_.substr(start, pos_ - start);
      ++pos_;
      return;
    }
    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < src_.size() && src_[pos_ + 1] == b;
    };
    if (two('%', '%')) { pos_ += 2; current_.kind = Tok::kModMod; return; }
    if (two('.', '.')) { pos_ += 2; current_.kind = Tok::kDotDot; return; }
    if (two('=', '=')) { pos_ += 2; current_.kind = Tok::kEq; return; }
    if (two('!', '=')) { pos_ += 2; current_.kind = Tok::kNe; return; }
    if (two('<', '=')) { pos_ += 2; current_.kind = Tok::kLe; return; }
    if (two('>', '=')) { pos_ += 2; current_.kind = Tok::kGe; return; }
    ++pos_;
    switch (c) {
      case '(': current_.kind = Tok::kLParen; return;
      case ')': current_.kind = Tok::kRParen; return;
      case '[': current_.kind = Tok::kLBracket; return;
      case ']': current_.kind = Tok::kRBracket; return;
      case '{': current_.kind = Tok::kLBrace; return;
      case '}': current_.kind = Tok::kRBrace; return;
      case ';': current_.kind = Tok::kSemicolon; return;
      case ',': current_.kind = Tok::kComma; return;
      case '=': current_.kind = Tok::kAssign; return;
      case '+': current_.kind = Tok::kPlus; return;
      case '-': current_.kind = Tok::kMinus; return;
      case '*': current_.kind = Tok::kStar; return;
      case '<': current_.kind = Tok::kLt; return;
      case '>': current_.kind = Tok::kGt; return;
      default:
        throw ScriptError(line_, std::string("unexpected character '") + c + "'");
    }
  }

  void skip_ws_and_comments() {
    for (;;) {
      while (pos_ < src_.size() &&
             std::isspace(static_cast<unsigned char>(src_[pos_]))) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ < src_.size() && src_[pos_] == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  /// The current numeric token's value. std::stoll/stod would throw
  /// std::out_of_range for a literal past the type's range.
  template <typename T>
  T literal() const {
    const std::string& text = current_.text;
    T v{};
    if (std::from_chars(text.data(), text.data() + text.size(), v).ec !=
        std::errc()) {
      throw ScriptError(line_, "number out of range: " + text);
    }
    return v;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token current_;
};

// --- AST ---------------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { kInt, kVar, kBinary } kind = Kind::kInt;
  std::int64_t value = 0;       // kInt
  std::string name;             // kVar (loop variable)
  Tok op = Tok::kPlus;          // kBinary
  ExprPtr lhs, rhs;
};

struct FileRef {
  std::string name;
  std::optional<ExprPtr> index;  // nullopt = scalar
  std::size_t line = 0;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Arguments to an app: either a file reference or a literal.
struct Arg {
  enum class Kind { kFile, kExpr, kString, kFloat } kind = Kind::kExpr;
  FileRef file;
  ExprPtr expr;
  std::string text;
  double number = 0;
};

struct Stmt {
  enum class Kind { kFileDecl, kSet, kApp, kForeach, kIf } kind;
  std::size_t line = 0;

  // kFileDecl
  std::string decl_name;
  bool is_array = false;

  // kSet
  FileRef target;

  // kApp
  std::vector<FileRef> outputs;
  std::string app_name;
  std::vector<Arg> args;
  bool mpi = false;
  ExprPtr nprocs, ppn;
  bool login = false;
  double login_cost_s = 0;

  // kForeach
  std::string loop_var;
  ExprPtr range_lo, range_hi;
  std::vector<StmtPtr> body;

  // kIf
  ExprPtr cond_lhs, cond_rhs;
  Tok cond_op = Tok::kEq;
  std::vector<StmtPtr> then_body, else_body;
};

// --- Parser ------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src) {}

  std::vector<StmtPtr> parse_program() {
    std::vector<StmtPtr> out;
    while (lex_.peek().kind != Tok::kEnd) out.push_back(parse_stmt());
    return out;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw ScriptError(lex_.line(), what);
  }

  Token expect(Tok kind, const char* what) {
    if (lex_.peek().kind != kind) fail(std::string("expected ") + what);
    return lex_.take();
  }

  bool accept(Tok kind) {
    if (lex_.peek().kind == kind) {
      lex_.take();
      return true;
    }
    return false;
  }

  bool at_keyword(const char* kw) {
    return lex_.peek().kind == Tok::kIdent && lex_.peek().text == kw;
  }

  StmtPtr parse_stmt() {
    if (at_keyword("file")) return parse_file_decl();
    if (at_keyword("set")) return parse_set();
    if (at_keyword("app")) return parse_app();
    if (at_keyword("foreach")) return parse_foreach();
    if (at_keyword("if")) return parse_if();
    fail("expected statement (file/set/app/foreach/if)");
  }

  StmtPtr parse_file_decl() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::kFileDecl;
    s->line = lex_.line();
    lex_.take();  // 'file'
    s->decl_name = expect(Tok::kIdent, "variable name").text;
    if (accept(Tok::kLBracket)) {
      expect(Tok::kRBracket, "]");
      s->is_array = true;
    }
    expect(Tok::kSemicolon, ";");
    return s;
  }

  StmtPtr parse_set() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::kSet;
    s->line = lex_.line();
    lex_.take();  // 'set'
    s->target = parse_file_ref();
    expect(Tok::kSemicolon, ";");
    return s;
  }

  FileRef parse_file_ref() {
    FileRef f;
    f.line = lex_.line();
    f.name = expect(Tok::kIdent, "file variable").text;
    if (accept(Tok::kLBracket)) {
      f.index = parse_expr();
      expect(Tok::kRBracket, "]");
    }
    return f;
  }

  StmtPtr parse_app() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::kApp;
    s->line = lex_.line();
    lex_.take();  // 'app'
    expect(Tok::kLParen, "(");
    if (lex_.peek().kind != Tok::kRParen) {
      s->outputs.push_back(parse_file_ref());
      while (accept(Tok::kComma)) s->outputs.push_back(parse_file_ref());
    }
    expect(Tok::kRParen, ")");
    expect(Tok::kAssign, "=");
    s->app_name = expect(Tok::kIdent, "application name").text;
    expect(Tok::kLParen, "(");
    if (lex_.peek().kind != Tok::kRParen) {
      s->args.push_back(parse_arg());
      while (accept(Tok::kComma)) s->args.push_back(parse_arg());
    }
    expect(Tok::kRParen, ")");
    // Options: mpi [nprocs=E] [ppn=E] | login [cost=F]
    while (lex_.peek().kind == Tok::kIdent) {
      if (at_keyword("mpi")) {
        lex_.take();
        s->mpi = true;
      } else if (at_keyword("nprocs")) {
        lex_.take();
        expect(Tok::kAssign, "=");
        s->nprocs = parse_expr();
      } else if (at_keyword("ppn")) {
        lex_.take();
        expect(Tok::kAssign, "=");
        s->ppn = parse_expr();
      } else if (at_keyword("login")) {
        lex_.take();
        s->login = true;
      } else if (at_keyword("cost")) {
        lex_.take();
        expect(Tok::kAssign, "=");
        const Token t = lex_.take();
        if (t.kind == Tok::kFloat) {
          s->login_cost_s = t.float_value;
        } else if (t.kind == Tok::kInt) {
          s->login_cost_s = static_cast<double>(t.int_value);
        } else {
          fail("expected numeric cost");
        }
      } else {
        fail("unknown app option '" + lex_.peek().text + "'");
      }
    }
    expect(Tok::kSemicolon, ";");
    return s;
  }

  /// An argument is a string literal, a float literal, a numeric
  /// expression, or a file reference. An identifier that names a loop
  /// variable is resolved at interpretation time — the parser stores both
  /// interpretations (kFile with a var fallback handled by the interp).
  Arg parse_arg() {
    Arg a;
    const Token& t = lex_.peek();
    if (t.kind == Tok::kString) {
      a.kind = Arg::Kind::kString;
      a.text = lex_.take().text;
      return a;
    }
    if (t.kind == Tok::kFloat) {
      a.kind = Arg::Kind::kFloat;
      a.number = lex_.take().float_value;
      return a;
    }
    if (t.kind == Tok::kInt || t.kind == Tok::kLParen || t.kind == Tok::kMinus) {
      a.kind = Arg::Kind::kExpr;
      a.expr = parse_expr();
      return a;
    }
    if (t.kind == Tok::kIdent) {
      a.kind = Arg::Kind::kFile;
      a.file = parse_file_ref();
      return a;
    }
    fail("expected argument");
  }

  ExprPtr parse_expr() {
    ExprPtr lhs = parse_term();
    while (lex_.peek().kind == Tok::kPlus || lex_.peek().kind == Tok::kMinus) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = lex_.take().kind;
      e->lhs = std::move(lhs);
      e->rhs = parse_term();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    while (lex_.peek().kind == Tok::kStar || lex_.peek().kind == Tok::kModMod) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = lex_.take().kind;
      e->lhs = std::move(lhs);
      e->rhs = parse_factor();
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_factor() {
    const Token& t = lex_.peek();
    if (t.kind == Tok::kInt) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInt;
      e->value = lex_.take().int_value;
      return e;
    }
    if (t.kind == Tok::kMinus) {
      lex_.take();
      auto zero = std::make_unique<Expr>();
      zero->kind = Expr::Kind::kInt;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = Tok::kMinus;
      e->lhs = std::move(zero);
      e->rhs = parse_factor();
      return e;
    }
    if (t.kind == Tok::kIdent) {
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kVar;
      e->name = lex_.take().text;
      return e;
    }
    if (t.kind == Tok::kLParen) {
      lex_.take();
      ExprPtr e = parse_expr();
      expect(Tok::kRParen, ")");
      return e;
    }
    fail("expected expression");
  }

  StmtPtr parse_foreach() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::kForeach;
    s->line = lex_.line();
    lex_.take();  // 'foreach'
    s->loop_var = expect(Tok::kIdent, "loop variable").text;
    if (!at_keyword("in")) fail("expected 'in'");
    lex_.take();
    s->range_lo = parse_expr();
    expect(Tok::kDotDot, "..");
    s->range_hi = parse_expr();
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_if() {
    auto s = std::make_unique<Stmt>();
    s->kind = Stmt::Kind::kIf;
    s->line = lex_.line();
    lex_.take();  // 'if'
    expect(Tok::kLParen, "(");
    s->cond_lhs = parse_expr();
    const Tok op = lex_.peek().kind;
    if (op != Tok::kEq && op != Tok::kNe && op != Tok::kLt && op != Tok::kGt &&
        op != Tok::kLe && op != Tok::kGe) {
      fail("expected comparison operator");
    }
    s->cond_op = lex_.take().kind;
    s->cond_rhs = parse_expr();
    expect(Tok::kRParen, ")");
    s->then_body = parse_block();
    if (at_keyword("else")) {
      lex_.take();
      s->else_body = parse_block();
    }
    return s;
  }

  std::vector<StmtPtr> parse_block() {
    expect(Tok::kLBrace, "{");
    std::vector<StmtPtr> body;
    while (lex_.peek().kind != Tok::kRBrace) body.push_back(parse_stmt());
    expect(Tok::kRBrace, "}");
    return body;
  }

  Lexer lex_;
};

}  // namespace

// --- Interpreter ---------------------------------------------------------------

class ScriptInterp {
 public:
  ScriptInterp(ScriptRunner& runner, SwiftEngine& engine)
      : runner_(&runner), engine_(&engine) {}

  void exec_all(const std::vector<StmtPtr>& stmts) {
    for (const auto& s : stmts) exec(*s);
  }

 private:
  std::int64_t eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kInt:
        return e.value;
      case Expr::Kind::kVar: {
        auto it = env_.find(e.name);
        if (it == env_.end()) {
          throw ScriptError(line_, "unknown loop variable '" + e.name + "'");
        }
        return it->second;
      }
      case Expr::Kind::kBinary: {
        const std::int64_t a = eval(*e.lhs);
        const std::int64_t b = eval(*e.rhs);
        std::int64_t r = 0;
        bool overflow = false;
        switch (e.op) {
          case Tok::kPlus: overflow = __builtin_add_overflow(a, b, &r); break;
          case Tok::kMinus: overflow = __builtin_sub_overflow(a, b, &r); break;
          case Tok::kStar: overflow = __builtin_mul_overflow(a, b, &r); break;
          case Tok::kModMod:
            if (b == 0) throw ScriptError(line_, "modulus by zero");
            // a % b is undefined exactly when a / b overflows.
            overflow = a == std::numeric_limits<std::int64_t>::min() && b == -1;
            if (overflow) break;
            // Floored modulus: the result takes b's sign. r + b cannot
            // overflow, since r and b differ in sign there.
            r = a % b;
            if (r != 0 && (r < 0) != (b < 0)) r += b;
            break;
          default: throw ScriptError(line_, "bad operator");
        }
        if (overflow) throw ScriptError(line_, "integer overflow");
        return r;
      }
    }
    throw ScriptError(line_, "bad expression");
  }

  DataPtr resolve(const FileRef& f) {
    if (!declared_or_known(f.name)) {
      throw ScriptError(f.line, "undeclared file variable '" + f.name + "'");
    }
    const std::int64_t idx = f.index ? eval(**f.index) : 0;
    return runner_->get_or_create(f.name, idx);
  }

  bool declared_or_known(const std::string& name) const {
    return runner_->vars_.contains(name);
  }

  void exec(const Stmt& s) {
    line_ = s.line;
    switch (s.kind) {
      case Stmt::Kind::kFileDecl:
        runner_->vars_[s.decl_name];  // declare (possibly empty) slot map
        return;
      case Stmt::Kind::kSet: {
        const DataPtr var = resolve(s.target);
        if (var->is_set()) {
          throw ScriptError(s.line, "'" + s.target.name + "' is already set");
        }
        var->set();
        return;
      }
      case Stmt::Kind::kApp: {
        AppCall call;
        call.argv.push_back(s.app_name);
        for (const Arg& a : s.args) {
          switch (a.kind) {
            case Arg::Kind::kString:
              call.argv.push_back(a.text);
              break;
            case Arg::Kind::kFloat:
              call.argv.push_back(std::to_string(a.number));
              break;
            case Arg::Kind::kExpr:
              call.argv.push_back(std::to_string(eval(*a.expr)));
              break;
            case Arg::Kind::kFile: {
              // An identifier naming a loop variable is a numeric argv
              // entry; otherwise it is a dataflow input.
              if (!a.file.index && env_.contains(a.file.name)) {
                call.argv.push_back(std::to_string(env_.at(a.file.name)));
              } else {
                DataPtr in = resolve(a.file);
                call.argv.push_back(in->path());
                call.inputs.push_back(std::move(in));
              }
              break;
            }
          }
        }
        for (const FileRef& out : s.outputs) {
          call.outputs.push_back(resolve(out));
        }
        call.mpi = s.mpi;
        if (s.nprocs) call.nprocs = static_cast<int>(eval(*s.nprocs));
        if (s.ppn) call.ppn = static_cast<int>(eval(*s.ppn));
        call.run_on_login = s.login;
        call.login_cost = sim::from_seconds(s.login_cost_s);
        engine_->app(std::move(call));
        ++runner_->statements_;
        return;
      }
      case Stmt::Kind::kForeach: {
        const std::int64_t lo = eval(*s.range_lo);
        const std::int64_t hi = eval(*s.range_hi);
        // Stop on the last value instead of stepping past it: `++i` beyond
        // hi overflows when hi is INT64_MAX.
        if (lo <= hi) {
          for (std::int64_t i = lo;; ++i) {
            env_[s.loop_var] = i;
            for (const auto& inner : s.body) exec(*inner);
            if (i == hi) break;
          }
        }
        env_.erase(s.loop_var);
        return;
      }
      case Stmt::Kind::kIf: {
        const std::int64_t a = eval(*s.cond_lhs);
        const std::int64_t b = eval(*s.cond_rhs);
        bool taken = false;
        switch (s.cond_op) {
          case Tok::kEq: taken = a == b; break;
          case Tok::kNe: taken = a != b; break;
          case Tok::kLt: taken = a < b; break;
          case Tok::kGt: taken = a > b; break;
          case Tok::kLe: taken = a <= b; break;
          case Tok::kGe: taken = a >= b; break;
          default: break;
        }
        const auto& body = taken ? s.then_body : s.else_body;
        for (const auto& inner : body) exec(*inner);
        return;
      }
    }
  }

  ScriptRunner* runner_;
  SwiftEngine* engine_;
  std::map<std::string, std::int64_t> env_;
  /// Line of the statement being executed, for expression errors.
  std::size_t line_ = 0;
};

void ScriptRunner::run(const std::string& source) {
  Parser parser(source);
  std::vector<StmtPtr> program = parser.parse_program();
  ScriptInterp interp(*this, *engine_);
  interp.exec_all(program);
}

DataPtr ScriptRunner::get_or_create(const std::string& name, std::int64_t index) {
  auto& slots = vars_[name];
  auto it = slots.find(index);
  if (it != slots.end()) return it->second;
  DataPtr var = engine_->file("/gpfs/swift/" + name + "." + std::to_string(index));
  slots.emplace(index, var);
  return var;
}

DataPtr ScriptRunner::variable(const std::string& name, std::int64_t index) const {
  auto v = vars_.find(name);
  if (v == vars_.end()) return nullptr;
  auto it = v->second.find(index);
  return it == v->second.end() ? nullptr : it->second;
}

}  // namespace jets::swift
