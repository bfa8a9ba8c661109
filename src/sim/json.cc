/**
 * @file
 * JsonWriter implementation.
 */

#include "sim/json.hh"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "sim/log.hh"
#include "sim/stats.hh"

namespace sonuma::sim {

namespace {

/** Containers at this depth or shallower put one member per line. */
constexpr std::size_t kLineBrokenDepth = 2;

} // namespace

void
JsonWriter::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (empty_.empty())
        return; // the document's outermost value
    const std::size_t depth = empty_.size();
    if (!empty_.back())
        out_ += ',';
    if (depth <= kLineBrokenDepth) {
        out_ += '\n';
        out_.append(2 * depth, ' ');
    } else if (!empty_.back()) {
        out_ += ' ';
    }
    empty_.back() = false;
}

JsonWriter &
JsonWriter::open(char c)
{
    separate();
    out_ += c;
    empty_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::close(char c)
{
    const std::size_t depth = empty_.size();
    if (!empty_.back() && depth <= kLineBrokenDepth) {
        out_ += '\n';
        out_.append(2 * (depth - 1), ' ');
    }
    empty_.pop_back();
    out_ += c;
    if (empty_.empty())
        out_ += '\n';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    value(k);
    out_ += ": ";
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += '"' + jsonEscape(std::string(s)) + '"';
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (!std::isfinite(v)) {
        out_ += "null";
    } else if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
        appendChars(static_cast<std::int64_t>(v));
    } else {
        appendChars(v);
    }
    return *this;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path);
    if (!(f << text))
        fatal("cannot write " + path);
}

} // namespace sonuma::sim
