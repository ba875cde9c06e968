//===- driver/Compiler.cpp ------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "sema/Sema.h"
#include "ssagen/TSAGen.h"
#include "tsa/ConstFold.h"

using namespace safetsa;

MethodSymbol *CompiledProgram::findMain() const {
  if (!Table)
    return nullptr;
  for (const auto &Class : Table->getClasses())
    for (MethodSymbol *M : Class->Methods)
      if (M->IsStatic && M->Name == "main" && M->ParamTys.empty() &&
          !M->isNative())
        return M;
  return nullptr;
}

std::unique_ptr<CompiledProgram> safetsa::compileMJ(
    const std::string &BufferName, const std::string &Source, bool EmitTSA) {
  auto P = std::make_unique<CompiledProgram>();
  P->SM = SourceManager(BufferName, Source);

  Lexer Lex(P->SM.getText(), P->Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (P->Diags.hasErrors())
    return P;

  Parser Parse(P->SM.getText(), std::move(Tokens), P->Diags);
  P->AST = Parse.parseProgram();
  if (P->Diags.hasErrors())
    return P;

  P->Table = std::make_unique<ClassTable>(P->Types);
  Sema S(P->Types, *P->Table, P->Diags);
  if (!S.run(P->AST))
    return P;

  // Static initializers are folded to their values at compile time, so
  // one whose evaluation would raise has no value to fold to.
  for (const ClassDecl *C : P->AST.Classes)
    for (const FieldDecl &F : C->Fields) {
      ConstantValue Init;
      if (F.IsStatic && F.Init && !foldStaticInit(*F.Init, Init))
        P->Diags.error(F.Loc, "static field initializer '" +
                                  std::string(F.Name) + "' divides by zero");
    }
  if (P->Diags.hasErrors())
    return P;

  if (EmitTSA) {
    TSAGenerator Gen(P->Types, *P->Table);
    P->TSA = Gen.generate(P->AST);
  }
  return P;
}
