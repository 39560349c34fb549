#ifndef SABLOCK_DATA_CSV_H_
#define SABLOCK_DATA_CSV_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "data/record.h"

namespace sablock::data {

/// Escapes a field for CSV output, quoting when needed.
std::string EscapeCsvField(std::string_view field);

/// Reads a dataset from a CSV file. The first row is the header (schema).
/// If `entity_column` is non-empty, that column is consumed as the
/// ground-truth entity label (equal strings map to equal entity ids, in
/// order of first appearance) and removed from the record attributes.
/// A row is one physical line (LF-terminated, one trailing CR dropped),
/// plus as many more as a quoted field left open at a line's end needs;
/// those line breaks, LF or CRLF, stay in the value, so everything
/// WriteCsv writes reads back. Blank lines before a data row are skipped.
/// Fields split at commas by RFC 4180's quote rules: a quote opens a
/// quoted field only as the field's first byte, a doubled quote inside
/// one is a literal quote, and any other quote ends it.
///
/// The file is read once, with read(2) to its end, into one buffer that
/// rows are split in place; each value is then copied once into the
/// dataset's arena. Peak memory is about the file plus the dataset, and
/// allocation is linear in the input: none per field, row or entity, and
/// a row wider than the header only counts its extra fields.
///
/// Errors leave `*out` untouched. N is the line a row starts on (1-based):
/// "cannot open CSV file: PATH", "cannot read CSV file: PATH", "CSV file
/// is empty: PATH", "CSV header repeats the entity column: NAME", "entity
/// column not found: NAME", "CSV row N has F fields, header has H" and
/// "CSV row N ends inside a quoted field".
Status ReadCsv(const std::string& path, const std::string& entity_column,
               Dataset* out);

/// Writes a dataset to a CSV file; if `entity_column` is non-empty, entity
/// labels are emitted in an extra leading column of that name.
Status WriteCsv(const std::string& path, const Dataset& dataset,
                const std::string& entity_column);

}  // namespace sablock::data

#endif  // SABLOCK_DATA_CSV_H_
