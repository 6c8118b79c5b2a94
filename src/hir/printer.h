/**
 * @file
 * Human-readable printing of Hydride IR expressions and semantics,
 * used by examples, error messages and the generated documentation.
 */
#ifndef HYDRIDE_HIR_PRINTER_H
#define HYDRIDE_HIR_PRINTER_H

#include <string>

#include "hir/semantics.h"

namespace hydride {

/** Render one expression as a compact s-expression string. */
std::string printExpr(const ExprPtr &expr);

/** Render canonical semantics as a readable loop-nest description. */
std::string printSemantics(const CanonicalSemantics &sem);

} // namespace hydride

#endif // HYDRIDE_HIR_PRINTER_H
