#include "gnb/presets.h"

namespace nrs {
namespace {

/// Shared plumbing: CORESET sized to the BWP, common/UE search spaces.
CellConfig base_cell(unsigned n_prb, Scs scs, std::uint16_t pci) {
  CellConfig cell;
  cell.pci = pci;
  cell.scs = scs;
  cell.n_prb = n_prb;
  cell.ssb_prb_start = 0;
  cell.coreset.id = 1;
  // CORESET spans the largest multiple of 6 PRBs that fits.
  cell.coreset.n_prb = (n_prb / 6) * 6;
  cell.coreset.rb_start = 0;
  cell.coreset.duration = 2;
  cell.coreset.interleaved = true;
  cell.coreset.reg_bundle_size = 6;
  cell.coreset.interleaver_rows = 2;
  cell.coreset.shift = pci;
  cell.coreset.n_id = pci;
  cell.common_ss =
      SearchSpaceConfig{/*ue_specific=*/false, {4, 8}, /*candidates=*/2};
  cell.ue_ss =
      SearchSpaceConfig{/*ue_specific=*/true, {1, 2, 4}, /*candidates=*/2};
  return cell;
}

}  // namespace

CellConfig srsran_cell() {
  CellConfig cell = base_cell(51, Scs::kHz30, 1);
  cell.name = "srsRAN-n41";
  cell.carrier_freq_hz = 2524.95e6;
  cell.tdd = TddPattern{5, 3, 1};  // DDDSU
  cell.pdsch.mcs_table = McsTable::kQam64;
  return cell;
}

CellConfig mosolab_cell() {
  CellConfig cell = base_cell(51, Scs::kHz30, 137);
  cell.name = "Mosolab-n48";
  cell.carrier_freq_hz = 3561.6e6;
  cell.tdd = TddPattern{5, 3, 1};
  cell.pdsch.mcs_table = McsTable::kQam64;
  return cell;
}

CellConfig amarisoft_cell() {
  CellConfig cell = base_cell(51, Scs::kHz30, 500);
  cell.name = "Amarisoft-n78";
  cell.carrier_freq_hz = 3489.42e6;
  cell.tdd = TddPattern{5, 3, 1};
  cell.pdsch.mcs_table = McsTable::kQam256;
  cell.pdsch.max_mimo_layers = 1;
  return cell;
}

CellConfig tmobile_cell1() {
  // 10 MHz @ 15 kHz -> 52 PRB, FDD, BWP 1 in the paper.
  CellConfig cell = base_cell(52, Scs::kHz15, 310);
  cell.name = "T-Mobile-n25";
  cell.carrier_freq_hz = 1989.85e6;
  cell.tdd = TddPattern{1, 1, 0};  // FDD: every slot downlink
  cell.pdsch.mcs_table = McsTable::kQam256;
  return cell;
}

CellConfig tmobile_cell2() {
  // 15 MHz @ 15 kHz -> 79 PRB; CORESET width rounds down to 78.
  CellConfig cell = base_cell(79, Scs::kHz15, 71);
  cell.name = "T-Mobile-n71";
  cell.carrier_freq_hz = 622.85e6;
  cell.tdd = TddPattern{1, 1, 0};
  cell.pdsch.mcs_table = McsTable::kQam256;
  return cell;
}

std::optional<CellConfig> cell_preset(std::string_view name) {
  if (name == "srsran") return srsran_cell();
  if (name == "mosolab") return mosolab_cell();
  if (name == "amarisoft") return amarisoft_cell();
  if (name == "tmobile1") return tmobile_cell1();
  if (name == "tmobile2") return tmobile_cell2();
  return std::nullopt;
}

}  // namespace nrs
