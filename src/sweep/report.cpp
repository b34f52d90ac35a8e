/**
 * @file
 * ReportTable rendering (aligned text and CSV).
 */

#include "sweep/report.h"

#include <algorithm>
#include <cstdio>

namespace vortex::sweep {

void
ReportTable::addRow(std::vector<std::string> row)
{
    row.resize(columns.size());
    rows.push_back(std::move(row));
}

void
ReportTable::print(std::ostream& os) const
{
    if (!title.empty())
        os << "\n==== " << title << " ====\n";

    std::vector<size_t> width(columns.size(), 0);
    for (size_t c = 0; c < columns.size(); ++c)
        width[c] = columns[c].size();
    for (const auto& row : rows)
        for (size_t c = 0; c < row.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto emit = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < width.size(); ++c) {
            const std::string& cell = c < cells.size() ? cells[c] : "";
            os << cell;
            if (c + 1 < width.size())
                os << std::string(width[c] - cell.size() + 2, ' ');
        }
        os << "\n";
    };
    emit(columns);
    for (const auto& row : rows)
        emit(row);
    for (const std::string& n : notes)
        os << n << "\n";
}

void
ReportTable::writeCsv(std::ostream& os) const
{
    auto emit = [&](const std::vector<std::string>& cells) {
        for (size_t c = 0; c < columns.size(); ++c) {
            if (c)
                os << ",";
            os << csvCell(c < cells.size() ? cells[c] : "");
        }
        os << "\n";
    };
    emit(columns);
    for (const auto& row : rows)
        emit(row);
}

void
ReportTable::writeJson(std::ostream& os) const
{
    auto list = [&](const std::vector<std::string>& cells) {
        os << "[";
        for (size_t i = 0; i < cells.size(); ++i)
            os << (i ? ", " : "") << "\"" << jsonEscape(cells[i]) << "\"";
        os << "]";
    };
    os << "{\n  \"table\": \"" << jsonEscape(title)
       << "\",\n  \"columns\": ";
    list(columns);
    os << ",\n  \"rows\": [\n";
    for (size_t r = 0; r < rows.size(); ++r) {
        os << "    ";
        list(rows[r]);
        os << (r + 1 < rows.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"notes\": ";
    list(notes);
    os << "\n}\n";
}

std::string
csvCell(const std::string& s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char ch : s) {
        switch (ch) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtF(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
fmtPct(double frac, int prec)
{
    return fmtF(100.0 * frac, prec) + "%";
}

} // namespace vortex::sweep
