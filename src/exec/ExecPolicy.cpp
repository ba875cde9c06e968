//===- exec/ExecPolicy.cpp ------------------------------------*- C++ -*-===//
//
// Part of the SafeTSA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecPolicy.h"

#include <cstdlib>

using namespace safetsa;

static bool envFlag(const char *Name) {
  const char *E = std::getenv(Name);
  return E && *E && !(E[0] == '0' && E[1] == '\0');
}

const EnvSwitches &safetsa::envSwitches() {
  static const EnvSwitches S = [] {
    EnvSwitches E;
    E.NoFusion = envFlag("SAFETSA_EXEC_NOFUSION");
    E.NoInline = envFlag("SAFETSA_EXEC_NOINLINE");
    E.Oracle = envFlag("SAFETSA_EXEC_ORACLE");
    E.Paranoid = envFlag("SAFETSA_PARANOID");
    return E;
  }();
  return S;
}
