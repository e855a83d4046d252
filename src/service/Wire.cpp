//===- service/Wire.cpp ---------------------------------------------------==//
//
// Part of the slin project.
//
//===----------------------------------------------------------------------===//

#include "service/Wire.h"

#include <cstdio>

using namespace slin;

LineKind slin::parseServiceLine(std::string_view Line, ServiceRecord &R,
                                std::string &Error) {
  return parseObjectActionLine(Line, MaxObjectId, R.Object, R.A, Error);
}

std::string slin::formatServiceRecord(const ServiceRecord &R) {
  return std::to_string(R.Object) + " " + formatAction(R.A);
}

void slin::appendServiceLine(std::string &Out, ObjectId Object,
                             const Action &A) {
  char Buf[16];
  int N = std::snprintf(Buf, sizeof(Buf), "%u ", Object);
  Out.append(Buf, static_cast<std::size_t>(N));
  Out += formatAction(A);
  Out += '\n';
}
