/**
 * @file
 * The specification database: one-stop entry point that runs the full
 * offline front half of the pipeline for an ISA — generate the vendor
 * manual text, parse every instruction with the dialect parser, and
 * canonicalize into the two-level loop form — with process-lifetime
 * caching (the offline phase is run once per compiler build in the
 * paper's workflow).
 */
#ifndef HYDRIDE_SPECS_SPEC_DB_H
#define HYDRIDE_SPECS_SPEC_DB_H

#include <string>
#include <vector>

#include "hir/semantics.h"
#include "specs/isa.h"

namespace hydride {

/** Canonicalized semantics for a whole ISA. */
struct IsaSemantics
{
    std::string isa;
    std::vector<CanonicalSemantics> insts;
};

/** Names of the built-in ISAs: "x86", "hvx", "arm". */
const std::vector<std::string> &builtinIsas();

/** Vendor manual for an ISA (generated; cached). */
const IsaSpec &isaManual(const std::string &isa);

/** Parse one instruction of `isa` ("x86", "hvx" or "arm") with that
 *  ISA's pseudocode dialect (src/specs/parser_common.h). Throws only
 *  ParseError on malformed pseudocode. No fault seam, so it is safe
 *  on parallelFor workers. */
SpecFunction parseWithDialect(const std::string &isa, const InstDef &inst);

/** parseWithDialect() behind the `parser.malformed` fault seam. */
SpecFunction parseInst(const std::string &isa, const InstDef &inst);

/**
 * Build the canonicalized semantics of every instruction of `isa`,
 * uncached. Parsing, canonicalization and load-time verification run
 * on parallelFor workers; the fault sites (`parser.malformed`,
 * `specdb.corrupt`), skip warnings and counters run afterwards in
 * manual order, so the result and the instructions a fault picks do
 * not depend on scheduling.
 */
IsaSemantics parseIsaSemantics(const std::string &isa);

/** parseIsaSemantics(isa), built once per process (cached). */
const IsaSemantics &isaSemantics(const std::string &isa);

/** Concatenated semantics of several ISAs. */
std::vector<CanonicalSemantics>
combinedSemantics(const std::vector<std::string> &isas);

} // namespace hydride

#endif // HYDRIDE_SPECS_SPEC_DB_H
