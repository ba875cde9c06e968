//===- ssagen/TSAGen.h - AST to SafeTSA generation ------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates SafeTSA form from the type-checked MJ AST in a single pass,
/// following the structured-language SSA construction of Brandis &
/// Mössenböck that the paper's compiler uses (§7): variable definitions
/// are tracked per path; phis are placed at if-joins, loop headers (for
/// variables assigned in the loop, pre-scanned), loop exits, and
/// break/continue merge points. Short-circuit operators are lowered to
/// if-else value merges (paper footnote 3). Parameters and constants are
/// preloaded into the entry block (§5); null checks and index checks are
/// made explicit at every access (§4).
///
//===----------------------------------------------------------------------===//

#ifndef SAFETSA_SSAGEN_TSAGEN_H
#define SAFETSA_SSAGEN_TSAGEN_H

#include "sema/ClassTable.h"
#include "tsa/Method.h"
#include "tsa/Signature.h"

#include <memory>

namespace safetsa {

/// Generation options.
struct TSAGenOptions {
  /// Insert phis eagerly at every merge point (loop headers get one per
  /// live variable, if-joins one per variable even when both paths agree),
  /// as a straightforward single-pass construction does. The superfluous
  /// ones are exactly what the paper's DCE removes ("a reduction of 31%
  /// on average in the number of phi instructions", §7). Disable for the
  /// pruned-construction ablation.
  bool EagerPhis = true;
};

/// Generates a TSAModule from a sema-annotated Program. The program must
/// have passed Sema without errors.
class TSAGenerator {
public:
  TSAGenerator(TypeContext &Types, ClassTable &Table,
               TSAGenOptions Options = TSAGenOptions())
      : Types(Types), Table(Table), Options(Options) {}

  std::unique_ptr<TSAModule> generate(const Program &P);

private:
  TypeContext &Types;
  ClassTable &Table;
  TSAGenOptions Options;
};

} // namespace safetsa

#endif // SAFETSA_SSAGEN_TSAGEN_H
