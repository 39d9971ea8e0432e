#include "mapping/mct_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace camdn::mapping {

namespace {

void write_candidate(std::ostream& os, const mapping_candidate& c) {
    os << (c.is_lbm ? "LBM" : "LWM") << ' ' << c.usage_level << ' ' << c.tm
       << ' ' << c.tn << ' ' << c.tk << ' ' << static_cast<int>(c.flow) << ' '
       << c.weights_pinned_bytes << ' ' << c.input_pinned_bytes << ' '
       << c.input_from_region << ' ' << c.output_to_region << ' '
       << c.weight_passes << ' ' << c.input_passes << ' ' << c.pages_needed
       << ' ' << c.dram_read_bytes << ' ' << c.dram_write_bytes << ' '
       << c.cache_read_bytes << ' ' << c.cache_write_bytes << ' '
       << c.compute_cycles << ' ' << c.est_cycles << '\n';
}

mapping_candidate read_candidate(std::istringstream& line, int line_no) {
    mapping_candidate c;
    std::string tag;
    int flow = 0;
    line >> tag >> c.usage_level >> c.tm >> c.tn >> c.tk >> flow >>
        c.weights_pinned_bytes >> c.input_pinned_bytes >> c.input_from_region >>
        c.output_to_region >> c.weight_passes >> c.input_passes >>
        c.pages_needed >> c.dram_read_bytes >> c.dram_write_bytes >>
        c.cache_read_bytes >> c.cache_write_bytes >> c.compute_cycles >>
        c.est_cycles;
    if (!line || (tag != "LWM" && tag != "LBM")) {
        throw std::runtime_error("mct_io: malformed candidate at line " +
                                 std::to_string(line_no));
    }
    c.is_lbm = tag == "LBM";
    c.flow = static_cast<dataflow>(flow);
    return c;
}

}  // namespace

void write_mapping(std::ostream& os, const model_mapping& m) {
    os << "camdn-mapping-v1\n";
    os << "model " << m.model_name << '\n';
    os << "blocks " << m.blocks.size() << '\n';
    for (const auto& b : m.blocks) {
        os << "block " << b.first << ' ' << b.last << ' ' << b.peak_bytes;
        for (auto off : b.out_offset) os << ' ' << off;
        os << '\n';
    }
    os << "layers " << m.tables.size() << '\n';
    for (std::size_t i = 0; i < m.tables.size(); ++i) {
        const mct& t = m.tables[i];
        os << "layer " << i << ' ' << m.layer_est[i] << ' ' << t.lwm.size()
           << ' ' << (t.lbm ? 1 : 0) << '\n';
        for (const auto& c : t.lwm) write_candidate(os, c);
        if (t.lbm) write_candidate(os, *t.lbm);
    }
    os << "block_est " << m.block_est.size();
    for (auto v : m.block_est) os << ' ' << v;
    os << "\nend\n";
}

model_mapping read_mapping(std::istream& is) {
    model_mapping m;
    std::string line;
    int line_no = 0;
    auto next_line = [&]() -> std::istringstream {
        if (!std::getline(is, line))
            throw std::runtime_error("mct_io: unexpected end of file at line " +
                                     std::to_string(line_no));
        ++line_no;
        return std::istringstream(line);
    };
    auto expect = [&](std::istringstream& ss, const std::string& keyword) {
        std::string word;
        ss >> word;
        if (word != keyword)
            throw std::runtime_error("mct_io: expected '" + keyword +
                                     "' at line " + std::to_string(line_no));
    };

    {
        auto ss = next_line();
        std::string magic;
        ss >> magic;
        if (magic != "camdn-mapping-v1")
            throw std::runtime_error("mct_io: bad magic header");
    }
    {
        auto ss = next_line();
        expect(ss, "model");
        ss >> m.model_name;
    }
    std::size_t block_count = 0;
    {
        auto ss = next_line();
        expect(ss, "blocks");
        ss >> block_count;
    }
    for (std::size_t b = 0; b < block_count; ++b) {
        auto ss = next_line();
        expect(ss, "block");
        model::layer_block blk;
        ss >> blk.first >> blk.last >> blk.peak_bytes;
        if (!ss || blk.last < blk.first)
            throw std::runtime_error("mct_io: malformed block at line " +
                                     std::to_string(line_no));
        // One offset per layer of the block, read as far as the line
        // goes: the unchecked range sizes nothing.
        for (std::uint64_t off; ss >> off;) blk.out_offset.push_back(off);
        if (!ss.eof() ||
            blk.out_offset.size() != std::uint64_t{blk.last} - blk.first + 1)
            throw std::runtime_error("mct_io: malformed block layout at line " +
                                     std::to_string(line_no));
        m.blocks.push_back(blk);
    }
    std::size_t layer_count = 0;
    {
        auto ss = next_line();
        expect(ss, "layers");
        ss >> layer_count;
        for (std::size_t b = 0; b < m.blocks.size(); ++b)
            if (m.blocks[b].last >= layer_count)
                throw std::runtime_error(
                    "mct_io: block " + std::to_string(b) + " ends at layer " +
                    std::to_string(m.blocks[b].last) + ", past the " +
                    std::to_string(layer_count) + " layers at line " +
                    std::to_string(line_no));
    }

    for (std::size_t i = 0; i < layer_count; ++i) {
        auto ss = next_line();
        expect(ss, "layer");
        std::size_t index = 0;
        std::uint64_t est = 0;
        std::size_t lwm_count = 0;
        int has_lbm = 0;
        ss >> index >> est >> lwm_count >> has_lbm;
        if (!ss || index != i)
            throw std::runtime_error("mct_io: malformed layer header at line " +
                                     std::to_string(line_no));
        if (lwm_count == 0)
            throw std::runtime_error("mct_io: layer without an LWM candidate "
                                     "at line " + std::to_string(line_no));
        mct table;
        for (std::size_t c = 0; c < lwm_count; ++c) {
            auto cs = next_line();
            const mapping_candidate cand = read_candidate(cs, line_no);
            // Algorithm 1 reads the list as ascending: minimal() is the
            // front and needs no page.
            if (table.lwm.empty()
                    ? cand.pages_needed != 0
                    : cand.pages_needed <= table.lwm.back().pages_needed)
                throw std::runtime_error(
                    "mct_io: LWM page counts do not ascend strictly from 0 "
                    "at line " + std::to_string(line_no));
            table.lwm.push_back(cand);
        }
        if (has_lbm) {
            auto cs = next_line();
            table.lbm = read_candidate(cs, line_no);
        }
        m.tables.push_back(std::move(table));
        m.layer_est.push_back(est);
    }
    // Every block ends before the layer count, and every layer was read.
    m.block_of.resize(layer_count, 0);
    for (std::uint32_t b = 0; b < m.blocks.size(); ++b)
        for (std::uint32_t i = m.blocks[b].first; i <= m.blocks[b].last; ++i)
            m.block_of[i] = b;
    {
        auto ss = next_line();
        expect(ss, "block_est");
        std::size_t count = 0;
        ss >> count;
        if (!ss || count != m.blocks.size())
            throw std::runtime_error("mct_io: block_est count differs from "
                                     "the block count at line " +
                                     std::to_string(line_no));
        m.block_est.resize(count, 0);
        for (std::size_t b = 0; b < count; ++b) ss >> m.block_est[b];
        if (!ss)
            throw std::runtime_error("mct_io: malformed block_est at line " +
                                     std::to_string(line_no));
    }
    return m;
}

std::string mapping_to_string(const model_mapping& mapping) {
    std::ostringstream os;
    write_mapping(os, mapping);
    return os.str();
}

model_mapping mapping_from_string(const std::string& text) {
    std::istringstream is(text);
    return read_mapping(is);
}

}  // namespace camdn::mapping
