#ifndef SABLOCK_DATA_CSV_H_
#define SABLOCK_DATA_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/record.h"

namespace sablock::data {

/// Parses one CSV line (RFC 4180 quoting: fields may be wrapped in double
/// quotes, embedded quotes are doubled). Returns the fields.
std::vector<std::string> ParseCsvLine(std::string_view line);

/// Escapes a field for CSV output, quoting when needed.
std::string EscapeCsvField(std::string_view field);

/// Reads a dataset from a CSV file. The first row is the header (schema).
/// If `entity_column` is non-empty, that column is consumed as the
/// ground-truth entity label (values with equal strings map to equal
/// entity ids) and removed from the record attributes. A quoted field may
/// span lines (its line breaks, LF or CRLF, are part of the value), so
/// everything WriteCsv writes reads back; a file that ends inside a
/// quoted field fails with a Status naming the row's first line. Blank
/// lines between rows are skipped.
Status ReadCsv(const std::string& path, const std::string& entity_column,
               Dataset* out);

/// Writes a dataset to a CSV file; if `entity_column` is non-empty, entity
/// labels are emitted in an extra leading column of that name.
Status WriteCsv(const std::string& path, const Dataset& dataset,
                const std::string& entity_column);

}  // namespace sablock::data

#endif  // SABLOCK_DATA_CSV_H_
