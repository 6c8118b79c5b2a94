#include "hir/printer.h"

#include "support/strings.h"

#include <sstream>

namespace hydride {

namespace {

void
printExprInto(const ExprPtr &expr, std::ostringstream &os)
{
    switch (expr->kind) {
      case ExprKind::IntConst:
        os << expr->value;
        return;
      case ExprKind::Param:
        os << (expr->name.empty() ? format("p%d", static_cast<int>(expr->value))
                                  : expr->name);
        return;
      case ExprKind::LoopVar:
        os << (expr->value == 0 ? "%i" : "%j");
        return;
      case ExprKind::NamedVar:
        os << "%" << expr->name;
        return;
      case ExprKind::IntBin:
        os << "(" << intBinOpName(static_cast<IntBinOp>(expr->value));
        break;
      case ExprKind::ArgBV:
        os << "%arg" << expr->value;
        return;
      case ExprKind::BVConst:
        os << "(bv";
        break;
      case ExprKind::BVBin:
        os << "(" << bvBinOpName(static_cast<BVBinOp>(expr->value));
        break;
      case ExprKind::BVUn:
        os << "(" << bvUnOpName(static_cast<BVUnOp>(expr->value));
        break;
      case ExprKind::BVCast:
        os << "(" << bvCastOpName(static_cast<BVCastOp>(expr->value));
        break;
      case ExprKind::Extract:
        os << "(extract";
        break;
      case ExprKind::Concat:
        os << "(concat";
        break;
      case ExprKind::BVCmp:
        os << "(cmp." << bvCmpOpName(static_cast<BVCmpOp>(expr->value));
        break;
      case ExprKind::Select:
        os << "(select";
        break;
      case ExprKind::Hole:
        os << "(hole";
        break;
    }
    for (const auto &kid : expr->kids) {
        os << " ";
        printExprInto(kid, os);
    }
    os << ")";
}

} // namespace

std::string
printExpr(const ExprPtr &expr)
{
    std::ostringstream os;
    printExprInto(expr, os);
    return os.str();
}

std::string
printSemantics(const CanonicalSemantics &sem)
{
    std::ostringstream os;
    os << "def " << sem.name << " [" << sem.isa << "] (";
    for (size_t i = 0; i < sem.bv_args.size(); ++i) {
        if (i)
            os << ", ";
        os << sem.bv_args[i].name << ": bv[" << printExpr(sem.bv_args[i].width)
           << "]";
    }
    os << ")";
    if (!sem.params.empty()) {
        os << " params(";
        for (size_t i = 0; i < sem.params.size(); ++i) {
            if (i)
                os << ", ";
            os << sem.params[i].name << "=" << sem.params[i].default_value;
        }
        os << ")";
    }
    os << "\n";
    os << "  for %i in 0.." << printExpr(sem.outer_count) << " {\n";
    os << "    for %j in 0.." << printExpr(sem.inner_count)
       << " {  // elem width " << printExpr(sem.elem_width) << "\n";
    const char *selector = sem.mode == TemplateMode::Uniform ? "uniform"
                           : sem.mode == TemplateMode::ByInner ? "by %j"
                                                               : "by %i";
    for (size_t t = 0; t < sem.templates.size(); ++t) {
        os << "      out[%i,%j] (" << selector << " #" << t
           << ") = " << printExpr(sem.templates[t]) << "\n";
    }
    os << "    }\n  }\n";
    return os.str();
}

} // namespace hydride
