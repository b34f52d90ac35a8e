/**
 * @file
 * Corpus-coverage metric for the differential fuzzer: which InstrKinds,
 * decode paths (RISC-V major opcodes), and static-analyzer checks a
 * window of generated seeds exercises. The metric is a pure function of
 * the seed window and the generator options — no simulation runs — so
 * CI can pin its JSON byte-for-byte and fail when a generator change
 * silently narrows what the corpus covers.
 */

#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "fuzz/fuzz.h"

namespace vortex::fuzz {

/** What a corpus of generated programs exercises (sorted string sets so
 *  the JSON serialization is deterministic). */
struct CoverageReport
{
    uint64_t startSeed = 0; ///< first seed of the measured window
    uint32_t seeds = 0;     ///< window length

    /** Mnemonics of every InstrKind decoded from the executable
     *  sections of the assembled programs (runtime + generated code). */
    std::set<std::string> instrKinds;

    /** Decoder dispatch paths taken, named by RISC-V major opcode
     *  ("OP", "OP-IMM", "LOAD", "VORTEX", ...). */
    std::set<std::string> decodePaths;

    /** Union of analysis::Report::exercisedChecks over the corpus: the
     *  analyzer decision points the programs actually reached. */
    std::set<std::string> analyzerChecks;
};

/**
 * Assemble (through the object pipeline) and statically analyze the
 * generated program of every seed in [startSeed, startSeed + count) on
 * the fuzzConfig() machine, and aggregate what the corpus exercises.
 * Fatal on a program the assembler rejects (a generator bug).
 */
CoverageReport measureCoverage(uint64_t startSeed, uint32_t count,
                               const GenOptions& opts = {});

/** Deterministic JSON serialization of @p report (sorted arrays, stable
 *  field order, trailing newline). */
std::string coverageJson(const CoverageReport& report);

/**
 * Parse a document produced by coverageJson() with the JSON reader
 * (common/json.h): a vortex-fuzz-coverage/v1 object carrying every key
 * that serializer writes. Fatal, naming @p what, on a syntax error, a
 * missing key, or a value of the wrong type.
 */
CoverageReport parseCoverageJson(const std::string& text,
                                 const std::string& what);

/**
 * Compare @p measured against a pinned @p baseline: every baseline
 * instrKind, decodePath, and analyzerCheck must still be covered.
 * @return a human-readable description of every regression (empty when
 * coverage is no worse than the baseline). New coverage beyond the
 * baseline is never a regression.
 */
std::string coverageRegressions(const CoverageReport& baseline,
                                const CoverageReport& measured);

} // namespace vortex::fuzz
