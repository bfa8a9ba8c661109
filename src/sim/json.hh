/**
 * @file
 * The one JSON writer every artifact goes through.
 *
 * Number rule: integers print as integers; doubles print in shortest
 * round-trip form (std::to_chars), except that integral doubles below
 * 2^53 print as integers (524288.0 -> 524288). Non-finite doubles,
 * which JSON cannot spell, print as null.
 *
 * Layout rule: the outer two levels of nesting put one member per line
 * (two-space indent); anything deeper stays on one line, so a flat cell
 * is one field per line and a table row or OBS series one line each.
 * The document ends with a newline when its outermost container closes.
 */

#ifndef SONUMA_SIM_JSON_HH
#define SONUMA_SIM_JSON_HH

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace sonuma::sim {

/** Artifact schema version; bump when a field's meaning or presence changes. */
constexpr int kArtifactSchema = 3;

class JsonWriter
{
  public:
    /** Open an artifact's top-level object: its "bench" kind and "schema". */
    JsonWriter &
    beginArtifact(std::string_view bench)
    {
        return beginObject().field("bench", bench).field("schema",
                                                         kArtifactSchema);
    }

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** Object member name; the next call writes its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(double v);

    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    value(T v)
    {
        separate();
        appendChars(v);
        return *this;
    }

    /** key(k).value(v). */
    template <typename T>
    JsonWriter &
    field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    /** The document so far (complete once every container closed). */
    const std::string &str() const { return out_; }

  private:
    std::string out_;
    std::vector<bool> empty_; //!< per open container: no member yet
    bool afterKey_ = false;

    JsonWriter &open(char c);
    JsonWriter &close(char c);
    void separate();

    template <typename T>
    void
    appendChars(T v)
    {
        char buf[32];
        out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
};

/** Write @p text to @p path; fatal() if the file cannot be written. */
void writeFile(const std::string &path, const std::string &text);

} // namespace sonuma::sim

#endif // SONUMA_SIM_JSON_HH
