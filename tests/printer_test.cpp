//===- tests/printer_test.cpp - Dump/driver surface tests -----*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/BCCompiler.h"
#include "bytecode/BCInterp.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "exec/Runtime.h"
#include "tsa/Printer.h"

#include <algorithm>

#include <gtest/gtest.h>

using namespace safetsa;

namespace {

TEST(Printer, ShowsPaperNotation) {
  auto P = compileMJ("p.mj",
                     "class C { int v; } "
                     "class Main { static int f(C c, int i) { "
                     "int[] a = new int[4]; "
                     "while (i < a.length) { a[i] = c.v; i = i + 1; } "
                     "return i + a[0]; } "
                     "static void main() { IO.printInt(f(new C(), 1)); } }");
  ASSERT_TRUE(P->ok());
  std::string Dump = printModule(*P->TSA);
  // Register planes with ascending fill.
  EXPECT_NE(Dump.find("int[0] <-"), std::string::npos);
  // Safe planes from checks.
  EXPECT_NE(Dump.find("safe-C[0] <- nullcheck C"), std::string::npos);
  EXPECT_NE(Dump.find("safe-index-int[]"), std::string::npos);
  // (l-r) operand pairs.
  EXPECT_NE(Dump.find("(0-0)"), std::string::npos);
  EXPECT_NE(Dump.find("(1-"), std::string::npos);
  // Structure comes from the CST.
  EXPECT_NE(Dump.find("loop header:"), std::string::npos);
  EXPECT_NE(Dump.find("while "), std::string::npos);
  EXPECT_NE(Dump.find("return"), std::string::npos);
  EXPECT_NE(Dump.find("phi"), std::string::npos);
}

TEST(Printer, ShowsTryStructure) {
  auto P = compileMJ("p.mj",
                     "class Main { static void main() { int z = 0; "
                     "try { IO.printInt(1 / z); } "
                     "catch { IO.printInt(2); } } }");
  ASSERT_TRUE(P->ok());
  std::string Dump = printModule(*P->TSA);
  EXPECT_NE(Dump.find("try"), std::string::npos);
  EXPECT_NE(Dump.find("catch"), std::string::npos);
  EXPECT_NE(Dump.find("xcall IO.printInt(int)"), std::string::npos);
  EXPECT_NE(Dump.find("xprimitive int div"), std::string::npos);
}

TEST(Printer, EveryCorpusProgramDumpsCleanly) {
  for (const CorpusProgram &Prog : getCorpus()) {
    auto P = compileMJ(Prog.Name, Prog.Source);
    ASSERT_TRUE(P->ok()) << Prog.Name;
    std::string Dump = printModule(*P->TSA);
    EXPECT_GT(Dump.size(), 500u) << Prog.Name;
    EXPECT_EQ(Dump.find("(?)"), std::string::npos)
        << Prog.Name << ": dangling reference in dump";
  }
}

TEST(Driver, FindMain) {
  auto P = compileMJ("p.mj", "class A { static void main() {} }");
  ASSERT_TRUE(P->ok());
  ASSERT_NE(P->findMain(), nullptr);
  EXPECT_EQ(P->findMain()->Name, "main");

  auto NoMain = compileMJ("p.mj", "class A { static void main(int x) {} }");
  ASSERT_TRUE(NoMain->ok());
  EXPECT_EQ(NoMain->findMain(), nullptr);
}

TEST(Driver, DiagnosticsRenderWithContext) {
  auto P = compileMJ("broken.mj", "class A { void f() { return 1; } }");
  EXPECT_FALSE(P->ok());
  std::string Out = P->renderDiagnostics();
  EXPECT_NE(Out.find("broken.mj:1:"), std::string::npos);
  EXPECT_NE(Out.find("void method cannot return"), std::string::npos);
  EXPECT_NE(Out.find('^'), std::string::npos);
}

TEST(Driver, EmitTSAFalseSkipsGeneration) {
  auto P = compileMJ("p.mj", "class A { static void main() {} }",
                     /*EmitTSA=*/false);
  EXPECT_TRUE(P->ok());
  EXPECT_EQ(P->TSA, nullptr);
  EXPECT_NE(P->Table, nullptr);
}

TEST(Driver, ASTDumpIsStable) {
  auto P = compileMJ("p.mj",
                     "class A { int x; int f(int a) { "
                     "if (a > 0) return a * x; return -a; } }",
                     /*EmitTSA=*/false);
  ASSERT_TRUE(P->ok());
  std::string Dump = dumpAST(P->AST);
  EXPECT_NE(Dump.find("class A"), std::string::npos);
  EXPECT_NE(Dump.find("method int f(int a)"), std::string::npos);
  EXPECT_NE(Dump.find("(a > 0)"), std::string::npos);
  EXPECT_NE(Dump.find("return (a * x)"), std::string::npos);
}

TEST(Driver, ASTOutlivesItsSourceString) {
  // The AST's names and string bodies live in the Program's arena, not in
  // the caller's buffer: scribble over that buffer and free it before
  // anything reads the tree. (The ASan build turns a view of the freed
  // buffer into a hard failure.)
  std::unique_ptr<CompiledProgram> P;
  {
    std::string Source =
        "class Counter { int count; Counter(int start) { count = start; } "
        "int bump(int by) { count = count + by; return count; } } "
        "class Main { static void main() { Counter c = new Counter(40); "
        "IO.printInt(c.bump(2)); IO.printStr(\"plain\"); "
        "IO.printStr(\"tab\\t\\\"quoted\\\"\"); } }";
    P = compileMJ("lifetime.mj", Source, /*EmitTSA=*/false);
    std::fill(Source.begin(), Source.end(), '#');
  }
  ASSERT_TRUE(P->ok()) << P->renderDiagnostics();

  std::string Dump = dumpAST(P->AST);
  EXPECT_NE(Dump.find("class Counter"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("method int bump(int by)"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("((c.bump(2)))"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("\"plain\""), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("\"tab\t\"quoted\"\""), std::string::npos) << Dump;

  BCCompiler BCC(P->Types, *P->Table);
  auto BC = BCC.compile(P->AST);
  Runtime RT(*P->Table);
  BCInterpreter I(*BC, RT, P->Types);
  ExecResult R = I.runMain();
  EXPECT_EQ(R.Err, RuntimeError::None) << runtimeErrorName(R.Err);
  EXPECT_EQ(RT.getOutput(), "42plaintab\t\"quoted\"");
}

} // namespace
