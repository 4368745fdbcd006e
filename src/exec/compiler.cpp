#include "exec/compiler.h"

#include <unordered_map>

#include "lang/sema.h"
#include "support/diagnostics.h"

namespace pugpara::exec {

namespace {

using lang::BinOp;
using lang::Expr;
using lang::Kernel;
using lang::MemSpace;
using lang::Stmt;
using lang::VarDecl;

class Compiler {
 public:
  explicit Compiler(const Kernel& kernel) : kernel_(kernel) {}

  CompiledKernel run() {
    out_.source = &kernel_;
    // Scalar parameters become local slots 0..k-1, loaded from launch args.
    for (const auto& p : kernel_.params) {
      if (p->type.isPointer) {
        registerArray(p.get());
      } else {
        allocLocal(p.get());
        out_.scalarParams.push_back(p.get());
      }
    }
    stmt(*kernel_.body);
    emit(Op::Halt, {});
    return std::move(out_);
  }

 private:
  void emit(Op op, SourceLoc loc, uint32_t a = 0, uint32_t b = 0,
            uint64_t imm = 0) {
    out_.code.push_back(Instr{op, a, b, imm, loc});
  }
  [[nodiscard]] uint32_t here() const {
    return static_cast<uint32_t>(out_.code.size());
  }

  uint32_t allocLocal(const VarDecl* d) {
    auto [it, inserted] =
        locals_.emplace(d, static_cast<uint32_t>(out_.localNames.size()));
    if (inserted) out_.localNames.push_back(d->name);
    return it->second;
  }

  uint32_t registerArray(const VarDecl* d) {
    auto [it, inserted] =
        arrays_.emplace(d, static_cast<uint32_t>(out_.arrays.size()));
    if (inserted) {
      ArrayInfo info;
      info.name = d->name;
      info.isShared = d->space == MemSpace::Shared;
      info.paramIndex = d->paramIndex;
      info.decl = d;
      out_.arrays.push_back(std::move(info));
    }
    return it->second;
  }

  [[nodiscard]] uint32_t localSlot(const VarDecl* d) {
    auto it = locals_.find(d);
    require(it != locals_.end(),
            "compile: use of variable '" + d->name + "' before declaration");
    return it->second;
  }

  // ---- Expressions ------------------------------------------------------------

  /// Emits the flattened (row-major) index for a possibly multi-dimensional
  /// access; extents come from the declaration and are launch-uniform.
  void flattenIndex(const Expr& e) {
    const VarDecl* d = e.decl;
    require(d != nullptr, "compile: unresolved array access");
    expr(*e.args[0]);
    for (size_t k = 1; k < e.args.size(); ++k) {
      expr(*d->dims[k]);  // extent of dimension k
      emit(Op::Binary, e.loc, static_cast<uint32_t>(BinOp::Mul), 1);
      expr(*e.args[k]);
      emit(Op::Binary, e.loc, static_cast<uint32_t>(BinOp::Add), 1);
    }
  }

  void expr(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        emit(Op::PushConst, e.loc, 0, 0, e.intValue);
        return;
      case Expr::Kind::BoolLit:
        emit(Op::PushConst, e.loc, 0, 0, e.boolValue ? 1 : 0);
        return;
      case Expr::Kind::VarRef:
        require(e.decl != nullptr, "compile: unresolved variable");
        emit(Op::LoadLocal, e.loc, localSlot(e.decl));
        return;
      case Expr::Kind::Builtin:
        emit(Op::LoadBuiltin, e.loc, static_cast<uint32_t>(e.builtin));
        return;
      case Expr::Kind::Index:
        flattenIndex(e);
        emit(Op::LoadArray, e.loc, registerArray(e.decl));
        return;
      case Expr::Kind::Unary:
        expr(*e.args[0]);
        emit(Op::Unary, e.loc, static_cast<uint32_t>(e.unop));
        return;
      case Expr::Kind::Binary: {
        // Short-circuit && and || compile to branches, matching C.
        if (e.binop == BinOp::LAnd || e.binop == BinOp::LOr) {
          expr(*e.args[0]);
          // Normalize to 0/1, duplicate via a scratch re-evaluation-free
          // pattern: jz/jump over the second operand.
          const bool isAnd = e.binop == BinOp::LAnd;
          uint32_t patch = here();
          emit(isAnd ? Op::JumpIfZero : Op::JumpIfZero, e.loc);  // placeholder
          if (isAnd) {
            expr(*e.args[1]);
            emit(Op::PushConst, e.loc, 0, 0, 0);
            emit(Op::Binary, e.loc, static_cast<uint32_t>(BinOp::Ne), 0);
            uint32_t done = here();
            emit(Op::Jump, e.loc);
            out_.code[patch].a = here();
            emit(Op::PushConst, e.loc, 0, 0, 0);
            out_.code[done].a = here();
          } else {
            // lhs == 0 -> evaluate rhs; else result 1.
            out_.code[patch].a = here() + 2;  // skip "push 1; jump done"
            emit(Op::PushConst, e.loc, 0, 0, 1);
            uint32_t done = here();
            emit(Op::Jump, e.loc);
            expr(*e.args[1]);
            emit(Op::PushConst, e.loc, 0, 0, 0);
            emit(Op::Binary, e.loc, static_cast<uint32_t>(BinOp::Ne), 0);
            out_.code[done].a = here();
          }
          return;
        }
        if (e.binop == BinOp::Implies) {
          // !a || b, evaluated eagerly (spec-only operator).
          expr(*e.args[0]);
          emit(Op::Unary, e.loc, static_cast<uint32_t>(lang::UnOp::LNot));
          expr(*e.args[1]);
          emit(Op::Binary, e.loc, static_cast<uint32_t>(BinOp::BitOr), 0);
          return;
        }
        expr(*e.args[0]);
        expr(*e.args[1]);
        emit(Op::Binary, e.loc, static_cast<uint32_t>(e.binop),
             lang::exprIsUnsigned(e) ||
                     (lang::isBoolOp(e.binop) &&
                      (lang::exprIsUnsigned(*e.args[0]) ||
                       lang::exprIsUnsigned(*e.args[1])))
                 ? 1
                 : 0);
        return;
      }
      case Expr::Kind::Ternary:
        expr(*e.args[0]);
        expr(*e.args[1]);
        expr(*e.args[2]);
        emit(Op::Select, e.loc);
        return;
      case Expr::Kind::Call: {
        for (const auto& a : e.args) expr(*a);
        const uint32_t uns = lang::exprIsUnsigned(e) ? 1 : 0;
        if (e.name == "min") emit(Op::Min, e.loc, 0, uns);
        else if (e.name == "max") emit(Op::Max, e.loc, 0, uns);
        else if (e.name == "abs") emit(Op::Abs, e.loc);
        else throw PugError("compile: unknown call '" + e.name + "'");
        return;
      }
    }
  }

  // ---- Statements --------------------------------------------------------------

  void stmt(const Stmt& s) {
    switch (s.kind) {
      case Stmt::Kind::Decl: {
        const VarDecl* d = s.decl.get();
        if (d->space == MemSpace::Shared) {
          registerArray(d);
          return;
        }
        uint32_t slot = allocLocal(d);
        if (d->init) {
          expr(*d->init);
          emit(Op::StoreLocal, s.loc, slot);
        }
        return;
      }
      case Stmt::Kind::Assign: {
        const Expr& lhs = *s.lhs;
        if (lhs.kind == Expr::Kind::VarRef) {
          uint32_t slot = localSlot(lhs.decl);
          if (s.isCompound) {
            emit(Op::LoadLocal, s.loc, slot);
            expr(*s.rhs);
            emit(Op::Binary, s.loc, static_cast<uint32_t>(s.compoundOp),
                 lang::exprIsUnsigned(lhs) || lang::exprIsUnsigned(*s.rhs)
                     ? 1
                     : 0);
          } else {
            expr(*s.rhs);
          }
          emit(Op::StoreLocal, s.loc, slot);
        } else {
          uint32_t arr = registerArray(lhs.decl);
          flattenIndex(lhs);
          if (s.isCompound) {
            // idx is on the stack; we need arr[idx] (op) rhs.
            // Stash the index in a synthetic local to avoid stack gymnastics.
            uint32_t tmp = scratchSlot();
            emit(Op::StoreLocal, s.loc, tmp);
            emit(Op::LoadLocal, s.loc, tmp);
            emit(Op::LoadLocal, s.loc, tmp);
            emit(Op::LoadArray, s.loc, arr);
            expr(*s.rhs);
            emit(Op::Binary, s.loc, static_cast<uint32_t>(s.compoundOp),
                 lang::exprIsUnsigned(lhs) || lang::exprIsUnsigned(*s.rhs)
                     ? 1
                     : 0);
          } else {
            expr(*s.rhs);
          }
          emit(Op::StoreArray, s.loc, arr);
        }
        return;
      }
      case Stmt::Kind::If: {
        expr(*s.cond);
        uint32_t jz = here();
        emit(Op::JumpIfZero, s.loc);
        stmt(*s.thenStmt);
        if (s.elseStmt) {
          uint32_t jend = here();
          emit(Op::Jump, s.loc);
          out_.code[jz].a = here();
          stmt(*s.elseStmt);
          out_.code[jend].a = here();
        } else {
          out_.code[jz].a = here();
        }
        return;
      }
      case Stmt::Kind::For: {
        if (s.init) stmt(*s.init);
        uint32_t top = here();
        uint32_t jz = 0;
        bool hasCond = s.cond != nullptr;
        if (hasCond) {
          expr(*s.cond);
          jz = here();
          emit(Op::JumpIfZero, s.loc);
        }
        stmt(*s.body);
        if (s.step) stmt(*s.step);
        emit(Op::Jump, s.loc, top);
        if (hasCond) out_.code[jz].a = here();
        return;
      }
      case Stmt::Kind::While: {
        uint32_t top = here();
        expr(*s.cond);
        uint32_t jz = here();
        emit(Op::JumpIfZero, s.loc);
        stmt(*s.body);
        emit(Op::Jump, s.loc, top);
        out_.code[jz].a = here();
        return;
      }
      case Stmt::Kind::Block:
        for (const auto& st : s.stmts) stmt(*st);
        return;
      case Stmt::Kind::Barrier:
        emit(Op::Barrier, s.loc);
        return;
      case Stmt::Kind::Return:
        emit(Op::Halt, s.loc);
        return;
      case Stmt::Kind::Assert:
        expr(*s.cond);
        emit(Op::Assert, s.loc);
        return;
      case Stmt::Kind::Assume:
        expr(*s.cond);
        emit(Op::Assume, s.loc);
        return;
      case Stmt::Kind::Postcond:  // evaluated by replay, never executed
        return;
    }
  }

  uint32_t scratchSlot() {
    if (scratch_ == UINT32_MAX) {
      scratch_ = static_cast<uint32_t>(out_.localNames.size());
      out_.localNames.push_back("$scratch");
    }
    return scratch_;
  }

  const Kernel& kernel_;
  CompiledKernel out_;
  std::unordered_map<const VarDecl*, uint32_t> locals_;
  std::unordered_map<const VarDecl*, uint32_t> arrays_;
  uint32_t scratch_ = UINT32_MAX;
};

}  // namespace

CompiledKernel compileAst(const Kernel& kernel) {
  return Compiler(kernel).run();
}

}  // namespace pugpara::exec
