/**
 * @file
 * Plain tabular reports: the common output shape of the area/synthesis
 * presets (Tables 3-5, Fig. 15) and of campaign summaries. A ReportTable
 * renders either as an aligned human-readable text table or as CSV, so
 * every preset has exactly one data path for both the printed report and
 * `vortex_sweep` file emission.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace vortex::sweep {

/** A titled table of string cells with optional footnotes. */
struct ReportTable
{
    std::string title;                ///< banner above the text rendering
    std::vector<std::string> columns; ///< header cells
    std::vector<std::vector<std::string>> rows; ///< data cells
    std::vector<std::string> notes; ///< printed after the table, not in CSV

    /** Append a row (must match columns in length; padded when short). */
    void addRow(std::vector<std::string> row);

    /** Aligned text rendering with the title banner and notes. */
    void print(std::ostream& os) const;

    /** RFC-4180-style CSV: header row, then data rows (notes omitted). */
    void writeCsv(std::ostream& os) const;

    /** JSON object: title, columns, rows, notes. */
    void writeJson(std::ostream& os) const;
};

/** Escape one CSV cell (quote when it contains comma/quote/newline). */
std::string csvCell(const std::string& s);

/** Escape one JSON string body (quote, backslash, and control
 *  characters). Shared by every JSON emitter in the sweep layer. */
std::string jsonEscape(const std::string& s);

/** Shortest round-trippable ("%.17g") text of @p v: the doubles of the
 *  campaign JSON, fabric events and cache entries. */
std::string fmtDouble(double v);

/** Fixed-point formatting helpers used by preset reports. */
std::string fmtF(double v, int prec);   ///< "%.<prec>f"
std::string fmtPct(double frac, int prec); ///< fraction -> "12.3%"

} // namespace vortex::sweep
