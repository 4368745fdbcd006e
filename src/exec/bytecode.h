// Bytecode for the concrete GPU virtual machine.
//
// Kernels compile to a flat stack-machine instruction stream; each thread
// carries its own program counter, operand stack and local slots, and the
// scheduler serializes threads between barriers (the paper's canonical
// schedule). This VM plays the role GKLEE's virtual machine plays in the
// paper's comparison and doubles as the counterexample replayer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.h"

namespace pugpara::exec {

enum class Op : uint8_t {
  PushConst,    // push imm
  LoadLocal,    // push locals[a]
  StoreLocal,   // locals[a] = pop
  LoadBuiltin,  // push builtin value (a = BuiltinVar)
  LoadArray,    // idx = pop; push array[a][idx]
  StoreArray,   // val = pop; idx = pop; array[a][idx] = val
  Binary,       // rhs = pop; lhs = pop; push lhs (op) rhs   (a = BinOp,
                // b = 1 when the unsigned variant applies)
  Unary,        // x = pop; push (op) x                      (a = UnOp)
  Select,       // e = pop; t = pop; c = pop; push c ? t : e
  Min,          // binary minimum (b = unsigned flag)
  Max,          // binary maximum (b = unsigned flag)
  Abs,
  Jump,         // pc = a
  JumpIfZero,   // c = pop; if (c == 0) pc = a
  Barrier,      // suspend until all live threads of the block arrive
  Halt,         // thread exits (return or end of kernel)
  Assert,       // c = pop; record violation if c == 0
  Assume,       // c = pop; mark thread infeasible if c == 0
};

struct Instr {
  Op op = Op::Halt;
  uint32_t a = 0;   // immediate: slot / array id / target / operator
  uint32_t b = 0;   // secondary: unsigned flag
  uint64_t imm = 0; // PushConst payload
  SourceLoc loc;
};

/// One array known to the VM: either a global pointer parameter or a
/// __shared__ per-block array. Shared-array extents are expressions over
/// launch-uniform values, evaluated once per launch.
struct ArrayInfo {
  std::string name;
  bool isShared = false;
  size_t paramIndex = 0;                  // globals: position in launch args
  const lang::VarDecl* decl = nullptr;    // shareds: dims to evaluate
};

struct CompiledKernel {
  const lang::Kernel* source = nullptr;   // must outlive the compiled form
  std::vector<Instr> code;
  std::vector<std::string> localNames;    // slot -> name (debugging)
  std::vector<ArrayInfo> arrays;          // LoadArray/StoreArray `a` operands
  std::vector<const lang::VarDecl*> scalarParams;  // order of scalar args

  [[nodiscard]] std::string disassemble() const;
};

}  // namespace pugpara::exec
