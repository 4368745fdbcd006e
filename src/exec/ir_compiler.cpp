// PIR -> bytecode compiler: the VM consumer of the mid-level IR.
//
// Emission is demand-driven. Walking each basic block in order, only
// "anchored" instructions emit code at their block position:
//
//   * effects (stores, barrier, assert/assume, thread-exit, spec refs),
//   * loads with imm == 0 (unconditionally evaluated in the source), and
//   * outermost BoolAnd/BoolOr (so their operand trees are evaluated at
//     the source statement's position, before any later store).
//
// Every other pure value is computed at its first use, memoized into a
// local slot. BoolAnd/BoolOr compile to compileAst's short-circuit branch
// pattern; their rhs is computed under the branch, and memo entries made
// there are rolled back afterwards so a later unconditional use
// recomputes rather than reading a possibly-skipped slot. Loads lowered
// from the rhs of && / || carry imm == 1 and are never anchored — the VM
// must not touch memory (and must not trap out-of-bounds) when the lhs
// already decided the result.
//
// Phis become two-phase parallel moves at region edges. Array ids follow
// Function::arrays, which reproduces compileAst's assignment.
#include "exec/compiler.h"

#include <unordered_map>
#include <unordered_set>

#include "ir/lower.h"
#include "ir/passes.h"
#include "ir/symbolic.h"

namespace pugpara::exec {

namespace {

using lang::BinOp;
using lang::UnOp;

class IrCompiler {
 public:
  explicit IrCompiler(const ir::Function& fn) : fn_(fn) {}

  CompiledKernel run() {
    out_.source = fn_.kernel;
    for (const lang::VarDecl* a : fn_.arrays) {
      ArrayInfo info;
      info.name = a->name;
      info.isShared = a->space == lang::MemSpace::Shared;
      info.paramIndex = a->paramIndex;
      info.decl = a;
      arrayIds_.emplace(a, static_cast<uint32_t>(out_.arrays.size()));
      out_.arrays.push_back(std::move(info));
    }
    // Scalar parameters occupy slots 0..k-1 (launch-argument convention).
    for (const auto& p : fn_.kernel->params) {
      if (p->type.isPointer) continue;
      paramSlots_.emplace(p.get(),
                          static_cast<uint32_t>(out_.localNames.size()));
      out_.localNames.push_back(p->name);
      out_.scalarParams.push_back(p.get());
    }
    emitNode(fn_.root);
    emit(SourceLoc{}, exec::Op::Halt);
    return std::move(out_);
  }

 private:
  void emit(SourceLoc loc, exec::Op op, uint32_t a = 0, uint32_t b = 0,
            uint64_t imm = 0) {
    out_.code.push_back(Instr{op, a, b, imm, loc});
  }
  [[nodiscard]] uint32_t here() const {
    return static_cast<uint32_t>(out_.code.size());
  }

  uint32_t slotOf(ir::ValueId v) {
    auto it = slots_.find(v);
    if (it != slots_.end()) return it->second;
    const ir::Instr& in = fn_.instr(v);
    uint32_t slot = static_cast<uint32_t>(out_.localNames.size());
    out_.localNames.push_back(in.decl != nullptr ? in.decl->name
                                                 : "%" + std::to_string(v));
    slots_.emplace(v, slot);
    return slot;
  }

  // ---- Scoped memoization ----------------------------------------------------
  //
  // computed_ holds values whose slot is guaranteed to contain the value
  // on every execution path reaching the current emission point. Scopes
  // bracket conditionally-executed code (if branches, loop bodies,
  // short-circuit rhs): entries added inside are invalidated on exit.

  void pushScope() { scopes_.emplace_back(); }
  void popScope() {
    for (ir::ValueId v : scopes_.back()) computed_.erase(v);
    scopes_.pop_back();
  }
  void markComputed(ir::ValueId v) {
    if (computed_.insert(v).second && !scopes_.empty())
      scopes_.back().push_back(v);
  }

  /// Pushes the value of an SSA value onto the thread's operand stack,
  /// computing it first if its slot is not valid here.
  void pushValue(ir::ValueId v) {
    const ir::Instr& in = fn_.instr(v);
    switch (in.op) {
      case ir::Op::ConstInt:
      case ir::Op::ConstBool:
        emit(in.loc, exec::Op::PushConst, 0, 0, in.imm);
        return;
      case ir::Op::Param:
        emit(in.loc, exec::Op::LoadLocal, paramSlots_.at(in.decl));
        return;
      case ir::Op::TidDim:
      case ir::Op::BidDim:
      case ir::Op::BlockDim:
      case ir::Op::GridDim:
        emit(in.loc, exec::Op::LoadBuiltin,
             static_cast<uint32_t>(
                 ir::builtinFor(in.op, static_cast<uint32_t>(in.imm))));
        return;
      case ir::Op::FreshScalar:
        // Slot is never stored; VM locals default to 0, so a read of an
        // uninitialized private gives 0, as in compileAst.
        emit(in.loc, exec::Op::LoadLocal, slotOf(v));
        return;
      case ir::Op::Phi:
        // Written only by the parallel moves at region edges.
        emit(in.loc, exec::Op::LoadLocal, slotOf(v));
        return;
      default:
        if (computed_.count(v) == 0) materialize(v);
        emit(in.loc, exec::Op::LoadLocal, slotOf(v));
        return;
    }
  }

  void binary(const ir::Instr& in, BinOp op, uint32_t uns) {
    pushValue(in.args[0]);
    pushValue(in.args[1]);
    emit(in.loc, exec::Op::Binary, static_cast<uint32_t>(op), uns);
  }
  void minmax(const ir::Instr& in, exec::Op op, uint32_t uns) {
    pushValue(in.args[0]);
    pushValue(in.args[1]);
    emit(in.loc, op, 0, uns);
  }

  /// Emits code computing `v` into its slot (stack-neutral) and records
  /// the slot as valid in the current scope.
  void materialize(ir::ValueId v) {
    const ir::Instr& in = fn_.instr(v);
    switch (in.op) {
      case ir::Op::Add: binary(in, BinOp::Add, 0); break;
      case ir::Op::Sub: binary(in, BinOp::Sub, 0); break;
      case ir::Op::Mul: binary(in, BinOp::Mul, 0); break;
      case ir::Op::UDiv: binary(in, BinOp::Div, 1); break;
      case ir::Op::SDiv: binary(in, BinOp::Div, 0); break;
      case ir::Op::URem: binary(in, BinOp::Rem, 1); break;
      case ir::Op::SRem: binary(in, BinOp::Rem, 0); break;
      case ir::Op::BvAnd: binary(in, BinOp::BitAnd, 0); break;
      case ir::Op::BvOr: binary(in, BinOp::BitOr, 0); break;
      case ir::Op::BvXor: binary(in, BinOp::BitXor, 0); break;
      case ir::Op::Shl: binary(in, BinOp::Shl, 0); break;
      case ir::Op::LShr: binary(in, BinOp::Shr, 1); break;
      case ir::Op::AShr: binary(in, BinOp::Shr, 0); break;
      case ir::Op::Eq: binary(in, BinOp::Eq, 0); break;
      case ir::Op::Ne: binary(in, BinOp::Ne, 0); break;
      case ir::Op::Ult: binary(in, BinOp::Lt, 1); break;
      case ir::Op::Slt: binary(in, BinOp::Lt, 0); break;
      case ir::Op::Ule: binary(in, BinOp::Le, 1); break;
      case ir::Op::Sle: binary(in, BinOp::Le, 0); break;

      case ir::Op::BoolAnd: {
        // Short-circuit pattern: lhs == 0 skips the rhs entirely.
        pushValue(in.args[0]);
        uint32_t jz = here();
        emit(in.loc, exec::Op::JumpIfZero);
        pushScope();
        pushValue(in.args[1]);
        popScope();
        emit(in.loc, exec::Op::PushConst, 0, 0, 0);
        emit(in.loc, exec::Op::Binary, static_cast<uint32_t>(BinOp::Ne), 0);
        uint32_t done = here();
        emit(in.loc, exec::Op::Jump);
        out_.code[jz].a = here();
        emit(in.loc, exec::Op::PushConst, 0, 0, 0);
        out_.code[done].a = here();
        break;
      }
      case ir::Op::BoolOr: {
        pushValue(in.args[0]);
        uint32_t jz = here();
        emit(in.loc, exec::Op::JumpIfZero);
        emit(in.loc, exec::Op::PushConst, 0, 0, 1);
        uint32_t done = here();
        emit(in.loc, exec::Op::Jump);
        out_.code[jz].a = here();
        pushScope();
        pushValue(in.args[1]);
        popScope();
        emit(in.loc, exec::Op::PushConst, 0, 0, 0);
        emit(in.loc, exec::Op::Binary, static_cast<uint32_t>(BinOp::Ne), 0);
        out_.code[done].a = here();
        break;
      }

      case ir::Op::Neg:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::Unary, static_cast<uint32_t>(UnOp::Neg));
        break;
      case ir::Op::BvNot:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::Unary, static_cast<uint32_t>(UnOp::BitNot));
        break;
      case ir::Op::BoolNot:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::Unary, static_cast<uint32_t>(UnOp::LNot));
        break;
      case ir::Op::Implies:
        // !a || b, evaluated eagerly (spec-only operator).
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::Unary, static_cast<uint32_t>(UnOp::LNot));
        pushValue(in.args[1]);
        emit(in.loc, exec::Op::Binary, static_cast<uint32_t>(BinOp::BitOr), 0);
        break;
      case ir::Op::BoolToInt:
        pushValue(in.args[0]);  // already 0/1
        break;
      case ir::Op::IntToBool:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::PushConst, 0, 0, 0);
        emit(in.loc, exec::Op::Binary, static_cast<uint32_t>(BinOp::Ne), 0);
        break;

      case ir::Op::UMin: minmax(in, exec::Op::Min, 1); break;
      case ir::Op::SMin: minmax(in, exec::Op::Min, 0); break;
      case ir::Op::UMax: minmax(in, exec::Op::Max, 1); break;
      case ir::Op::SMax: minmax(in, exec::Op::Max, 0); break;
      case ir::Op::Abs:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::Abs);
        break;
      case ir::Op::Select:
        pushValue(in.args[0]);
        pushValue(in.args[1]);
        pushValue(in.args[2]);
        emit(in.loc, exec::Op::Select);
        break;

      case ir::Op::SharedLoad:
      case ir::Op::GlobalLoad:
        pushValue(in.args[0]);
        emit(in.loc, exec::Op::LoadArray, arrayIds_.at(in.decl));
        break;

      default:
        throw PugError("ir compiler: cannot materialize op #" +
                       std::to_string(static_cast<int>(in.op)));
    }
    emit(in.loc, exec::Op::StoreLocal, slotOf(v));
    markComputed(v);
  }

  void emitBlock(ir::BlockId b) {
    for (ir::ValueId v : fn_.blocks[b].instrs) {
      const ir::Instr& in = fn_.instr(v);
      switch (in.op) {
        case ir::Op::SharedStore:
        case ir::Op::GlobalStore:
          pushValue(in.args[0]);  // index
          pushValue(in.args[1]);  // value
          emit(in.loc, exec::Op::StoreArray, arrayIds_.at(in.decl));
          break;
        case ir::Op::Barrier:
          emit(in.loc, exec::Op::Barrier);
          break;
        case ir::Op::Assert:
          pushValue(in.args[0]);
          emit(in.loc, exec::Op::Assert);
          break;
        case ir::Op::Assume:
          pushValue(in.args[0]);
          emit(in.loc, exec::Op::Assume);
          break;
        case ir::Op::ThreadExit:
          emit(in.loc, exec::Op::Halt);
          break;
        case ir::Op::SpecRef:  // evaluated by replay, never executed
          break;
        case ir::Op::SharedLoad:
        case ir::Op::GlobalLoad:
        case ir::Op::BoolAnd:
        case ir::Op::BoolOr:
          // Anchor unconditional memory reads and outermost short-circuit
          // operators at the source evaluation point. imm == 1 marks
          // values inside a && / || rhs: computed on demand, under the
          // guarding branch.
          if (in.imm == 0 && computed_.count(v) == 0) materialize(v);
          break;
        case ir::Op::SpecVar:
        case ir::Op::SpecLoad:
          throw PugError("ir compiler: spec op in the region tree");
        case ir::Op::Phi:
          break;  // written by the parallel moves at region edges
        default:
          break;  // pure: computed at first use
      }
    }
  }

  /// Two-phase parallel move into the block's phi slots: push every source,
  /// then store in reverse — phi sources never observe this edge's writes.
  void phiMoves(ir::BlockId b, size_t side) {
    std::vector<ir::ValueId> phis;
    for (ir::ValueId v : fn_.blocks[b].instrs)
      if (fn_.instr(v).op == ir::Op::Phi) phis.push_back(v);
    for (ir::ValueId v : phis) pushValue(fn_.instr(v).args[side]);
    for (auto it = phis.rbegin(); it != phis.rend(); ++it)
      emit(fn_.instr(*it).loc, exec::Op::StoreLocal, slotOf(*it));
  }

  void emitNode(ir::NodeId id) {
    const ir::Node& n = fn_.nodes[id];
    switch (n.kind) {
      case ir::Node::Kind::Seq:
        for (ir::NodeId k : n.kids) emitNode(k);
        return;
      case ir::Node::Kind::Leaf:
        emitBlock(n.block);
        return;
      case ir::Node::Kind::If: {
        const SourceLoc loc = fn_.instr(n.cond).loc;
        pushValue(n.cond);
        uint32_t jz = here();
        emit(loc, exec::Op::JumpIfZero);
        pushScope();
        emitNode(n.thenNode);
        phiMoves(n.mergeBlock, 0);
        popScope();
        uint32_t jend = here();
        emit(loc, exec::Op::Jump);
        out_.code[jz].a = here();
        pushScope();
        if (n.elseNode != ir::kNodeNone) emitNode(n.elseNode);
        phiMoves(n.mergeBlock, 1);
        popScope();
        out_.code[jend].a = here();
        return;
      }
      case ir::Node::Kind::Loop: {
        const ir::LoopInfo& li = fn_.loops[n.loopIdx];
        phiMoves(n.headerBlock, 0);
        uint32_t top = here();
        // Header slots stay valid after the loop: the header (phis, cond
        // chain) runs once more before every exit. Body/latch slots do
        // not — the body may run zero times — so they are scoped.
        emitBlock(n.headerBlock);
        uint32_t jz = 0;
        if (li.hasCond) {
          pushValue(li.cond);
          jz = here();
          emit(li.loc, exec::Op::JumpIfZero);
        }
        pushScope();
        emitNode(n.bodyNode);
        emitBlock(n.latchBlock);
        phiMoves(n.headerBlock, 1);
        popScope();
        emit(li.loc, exec::Op::Jump, top);
        if (li.hasCond) out_.code[jz].a = here();
        return;
      }
    }
  }

  const ir::Function& fn_;
  CompiledKernel out_;
  std::unordered_map<ir::ValueId, uint32_t> slots_;
  std::unordered_set<ir::ValueId> computed_;
  std::vector<std::vector<ir::ValueId>> scopes_;
  std::unordered_map<const lang::VarDecl*, uint32_t> paramSlots_;
  std::unordered_map<const lang::VarDecl*, uint32_t> arrayIds_;
};

}  // namespace

CompiledKernel compile(const lang::Kernel& kernel,
                       const CompileOptions& options) {
  auto fn = ir::lower(kernel);
  if (options.optimize) fn = ir::runPasses(*fn);
  return IrCompiler(*fn).run();
}

CompiledKernel compile(const lang::Kernel& kernel) {
  return compile(kernel, CompileOptions{});
}

}  // namespace pugpara::exec
