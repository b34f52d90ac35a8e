/**
 * @file
 * Versionable sweep-spec files: parse and serialize a full SweepSpec as a
 * document, so a campaign is a checked-in artifact instead of a command
 * line.
 *
 * Two input syntaxes share one schema (docs/SWEEP_SPECS.md is the format
 * reference):
 *
 *  - a dependency-free TOML subset — comments, `key = value` pairs
 *    (strings, integers, booleans), dotted keys (`set.kernel = "sgemm"`),
 *    `[table]` and `[[array-of-tables]]` headers — which covers every
 *    construct the schema needs;
 *  - standard JSON, detected by a leading `{`, for machine-generated
 *    specs, read by the shared JSON reader (common/json.h).
 *
 * Both parsers produce the same document tree and report malformed input
 * through SpecParseError with `file:line:col` positions, so a typo in a
 * checked-in spec points at the offending character, not at a failed
 * campaign.
 *
 * Serialization (writeSpecToml) is canonical and self-contained: every
 * base machine and workload field is written explicitly (not just the
 * fields that differ from today's defaults), so a spec file pins the
 * machine even if ArchConfig defaults drift later. `vortex_sweep
 * specs dump` uses it to export any sweep; each shipped TOML file under
 * examples/specs/ — the built-in presets — is exactly its own dump
 * (tests/test_specfile.cpp pins the bytes and the content-hash
 * equality of the round trip).
 */

#pragma once

#include <ostream>
#include <string>

#include "common/json.h"
#include "sweep/spec.h"

namespace vortex::sweep {

/** Malformed spec-file input: the reader's ParseError (common/json.h),
 *  thrown by both syntaxes and by the schema builder. */
using SpecParseError = ParseError;

/**
 * Parse spec text in either supported syntax (JSON when the first
 * non-whitespace character is `{`, the TOML subset otherwise) into a
 * SweepSpec. Field names and values are validated through the same
 * field table as `--set`/`--axis` (applyField), so a spec file can express
 * exactly what the CLI can.
 *
 * @param text     the document content
 * @param filename name used in diagnostics (e.g. the path, or "<string>")
 * @throws SpecParseError on malformed syntax, unknown keys, unknown
 *         field names, or type mismatches — always with line/column.
 */
SweepSpec parseSpecText(const std::string& text,
                        const std::string& filename = "<string>");

/**
 * The top-level `description` of spec text in either syntax, read
 * without applying any field — so no `program` file is opened and the
 * result does not depend on the working directory. Empty when absent.
 * @throws SpecParseError on malformed syntax or a non-string value.
 */
std::string parseSpecDescription(const std::string& text,
                                 const std::string& filename = "<string>");

/** parseSpecText over the content of @p path; fatal when the file cannot
 *  be read. */
SweepSpec parseSpecFile(const std::string& path);

/**
 * Serialize @p spec as a canonical, self-contained TOML document:
 * header (`spec`/`name`/`description`), then the field table's dump
 * rows (fieldTexts) as the full `[base]` machine, the `[workload]` block
 * and, when set, `[faults]`; then `[fabric]` when sharded, and one
 * `[[axes]]` / `[[axes.points]]` pair per axis point. The output
 * parses back (parseSpecText) to a spec whose expanded run matrix is
 * content-hash-identical to @p spec's — the round trip CI and the tests
 * rely on.
 *
 * Derived fields ("cores") are never emitted: the concrete fields they
 * assign are. Note lineSize is written once and re-applies to both the
 * cache and board-memory line size, matching the field table.
 */
void writeSpecToml(const SweepSpec& spec, std::ostream& os);

/** writeSpecToml rendered to a string (convenience for tests/tools). */
std::string specToToml(const SweepSpec& spec);

} // namespace vortex::sweep
