#ifndef SABLOCK_DATA_VOTER_GENERATOR_H_
#define SABLOCK_DATA_VOTER_GENERATOR_H_

#include <cstdint>

#include "data/record.h"

namespace sablock::data {

/// Configuration of the NC-Voter-like person dataset generator (the
/// substitution for the real NC Voter extract; DESIGN.md §2).
///
/// Entities are voters (first/last name, gender, race, city, street, age).
/// Compared with the bibliographic generator the data is *large and
/// relatively clean* (the paper's characterization): duplicates are few,
/// typos light — but the semantic attributes gender/race carry *uncertain*
/// values 'u', the property that drives the w-way OR preference in Fig. 8.
struct VoterGeneratorConfig {
  size_t num_records = 30000;
  uint64_t seed = 97;

  /// Fraction of records that are duplicates of an earlier entity
  /// (NC Voter's prepared set is mostly singletons).
  double duplicate_fraction = 0.25;
  /// Maximum records per entity.
  size_t max_cluster_size = 5;
  /// P(gender recorded as 'u').
  double gender_uncertain_prob = 0.12;
  /// P(race recorded as 'u').
  double race_uncertain_prob = 0.18;
  /// P(a duplicate's gender/race disagrees with the original) — genuinely
  /// inconsistent semantics across records of one entity.
  double semantic_flip_prob = 0.02;

  /// Duplicate-error mixture (per duplicate record). NC Voter is "large
  /// and relatively clean": most duplicates carry zero or one character
  /// edit, but real rolls also contain nickname registrations
  /// ("william" -> "bill") and surname changes.
  double zero_edit_prob = 0.45;
  double one_edit_prob = 0.40;  // remainder gets two edits
  double nickname_prob = 0.06;
  double surname_change_prob = 0.04;
  /// P(a character edit is an OCR confusion rather than a keyboard slip).
  double ocr_prob = 0.1;
};

/// Generates an NC-Voter-like dataset with ground-truth entity ids.
/// Schema: first_name, last_name, gender, race, city, street, age.
Dataset GenerateVoterLike(const VoterGeneratorConfig& config);

/// Generates a two-source record-linkage pair (e.g. two snapshots of a
/// voter roll): dataset A holds `records_a` distinct voters; dataset B
/// holds `records_b` records of which an `overlap` fraction re-describe an
/// entity of A through the duplicate-error model (typos, nicknames,
/// uncertainty) and the rest are fresh voters. Entity ids share one label
/// space across both outputs, as core::MergeForLinkage expects.
void GenerateVoterLinkagePair(const VoterGeneratorConfig& config,
                              size_t records_a, size_t records_b,
                              double overlap, Dataset* a, Dataset* b);

}  // namespace sablock::data

#endif  // SABLOCK_DATA_VOTER_GENERATOR_H_
