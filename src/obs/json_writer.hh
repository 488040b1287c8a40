/**
 * @file
 * Streaming JSON writer shared by every machine-readable emitter.
 *
 * Before the observability layer, three hand-rolled JSON emitters had
 * quietly diverged (result serde, campaign JSON, bench reports), each
 * with its own escaping and number-precision policy. JsonWriter is the
 * single policy point:
 *
 *  - escaping backslash-escapes `"` `\` `\n` `\r` `\t` and writes
 *    \u00XX for other control characters;
 *  - doubles render with the shortest decimal form that round-trips
 *    to the exact same bits (%.15g, widening to %.17g only when
 *    needed), so serialize/deserialize cycles are lossless without
 *    paying 17 digits for values like 0.25;
 *  - separators follow the repo-wide style: `"key": value, "k2": v2`.
 *
 * The writer is a thin state machine over an std::ostream — it tracks
 * only "does the next element need a comma" per nesting level, and
 * never buffers. Emitters that need whole-line atomicity render into
 * an std::ostringstream first.
 */

#ifndef TB_OBS_JSON_WRITER_HH_
#define TB_OBS_JSON_WRITER_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tb {
namespace obs {

/** Shortest decimal form of @p v that strtod parses back bit-exact. */
std::string formatDouble(double v);

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream& os) : out(os) {}

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    JsonWriter&
    beginObject()
    {
        sep();
        out << '{';
        needComma.push_back(false);
        return *this;
    }

    JsonWriter&
    endObject()
    {
        needComma.pop_back();
        out << '}';
        return *this;
    }

    JsonWriter&
    beginArray()
    {
        sep();
        out << '[';
        needComma.push_back(false);
        return *this;
    }

    JsonWriter&
    endArray()
    {
        needComma.pop_back();
        out << ']';
        return *this;
    }

    /** Emit a member key; the next value call supplies its value. */
    JsonWriter&
    key(std::string_view k)
    {
        sep();
        out << '"' << escape(k) << "\": ";
        afterKey = true;
        return *this;
    }

    JsonWriter&
    value(std::string_view v)
    {
        sep();
        out << '"' << escape(v) << '"';
        return *this;
    }

    JsonWriter& value(const char* v) { return value(std::string_view(v)); }

    JsonWriter&
    value(const std::string& v)
    {
        return value(std::string_view(v));
    }

    JsonWriter&
    value(bool v)
    {
        sep();
        out << (v ? "true" : "false");
        return *this;
    }

    /** Doubles use the shared shortest-round-trip policy; non-finite
     *  values (which JSON cannot represent) become null. */
    JsonWriter& value(double v);

    template <typename T,
              typename = std::enable_if_t<std::is_integral_v<T> &&
                                          !std::is_same_v<T, bool>>>
    JsonWriter&
    value(T v)
    {
        sep();
        if constexpr (std::is_signed_v<T>)
            out << static_cast<long long>(v);
        else
            out << static_cast<unsigned long long>(v);
        return *this;
    }

    JsonWriter&
    null()
    {
        sep();
        out << "null";
        return *this;
    }

    /** Emit @p text verbatim as one value (caller guarantees validity). */
    JsonWriter&
    raw(std::string_view text)
    {
        sep();
        out << text;
        return *this;
    }

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter&
    field(std::string_view k, T&& v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

    /**
     * Escape @p s for a JSON string body: `"` `\` `\n` `\r` `\t` get
     * two-char escapes, other bytes below 0x20 become \u00XX.
     */
    static std::string escape(std::string_view s);

  private:
    void
    sep()
    {
        if (afterKey) {
            afterKey = false;
            return;
        }
        if (needComma.empty())
            return;
        if (needComma.back())
            out << ", ";
        else
            needComma.back() = true;
    }

    std::ostream& out;
    std::vector<char> needComma;
    bool afterKey = false;
};

} // namespace obs
} // namespace tb

#endif // TB_OBS_JSON_WRITER_HH_
