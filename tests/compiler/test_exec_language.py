"""End-to-end language-feature tests: compile mini-C, emulate, check
output — at every optimization level (so each pass is exercised against
a functional oracle)."""

import pytest

from tests.conftest import output_of, run_all_levels


def test_arith_basics():
    assert run_all_levels(
        """
        int main() {
            print_int(2 + 3 * 4);
            print_int((2 + 3) * 4);
            print_int(10 / 3);
            print_int(10 % 3);
            print_int(-10 / 3);
            print_int(-10 % 3);
            print_int(1 << 10);
            print_int(-16 >> 2);
            print_int(0xF0 & 0x3C);
            print_int(0xF0 | 0x0F);
            print_int(0xFF ^ 0x0F);
            print_int(~0);
            return 0;
        }
        """
    ) == [14, 20, 3, 1, -3, -1, 1024, -4, 0x30, 0xFF, 0xF0, -1]


def test_overflow_wraps_32_bits():
    assert run_all_levels(
        """
        int main() {
            int big = 2147483647;
            print_int(big + 1);
            print_int(big * 2);
            return 0;
        }
        """
    ) == [-2147483648, -2]


def test_literal_past_int_max_wraps_at_every_level():
    """A literal past 2**31 - 1 is the 32-bit int it wraps to, whether
    it lives in memory (-O0) or in a register after mem2reg."""
    assert run_all_levels(
        """
        int main() {
            int a = 0xFFFFFFFF;
            print_int(a & a);
            print_int(a < 0);
            print_int(a | 0x80000000);
            print_int(-2147483648);
            print_int(0xFFFFFFFF & 0xFF);
            return 0;
        }
        """
    ) == [-1, 1, -1, -2147483648, 0xFF]


def test_comparisons_and_logic():
    assert run_all_levels(
        """
        int main() {
            print_int(3 < 4);
            print_int(4 <= 3);
            print_int(5 == 5);
            print_int(5 != 5);
            print_int(1 && 0);
            print_int(1 || 0);
            print_int(!7);
            print_int(!0);
            return 0;
        }
        """
    ) == [1, 0, 1, 0, 0, 1, 0, 1]


def test_short_circuit_side_effects():
    assert run_all_levels(
        """
        int hits = 0;
        int bump() { hits++; return 1; }
        int main() {
            int x = 0 && bump();
            int y = 1 || bump();
            print_int(hits);
            print_int(1 && bump());
            print_int(hits);
            return x + y;
        }
        """
    ) == [0, 1, 1]


def test_ternary():
    assert run_all_levels(
        """
        int main() {
            int a = 5;
            print_int(a > 3 ? 10 : 20);
            print_int(a < 3 ? 10 : 20);
            return 0;
        }
        """
    ) == [10, 20]


def test_incdec_semantics():
    assert run_all_levels(
        """
        int main() {
            int i = 5;
            print_int(i++);
            print_int(i);
            print_int(++i);
            print_int(i--);
            print_int(--i);
            return 0;
        }
        """
    ) == [5, 6, 7, 7, 5]


def test_compound_assignment():
    assert run_all_levels(
        """
        int main() {
            int x = 10;
            x += 5; print_int(x);
            x -= 3; print_int(x);
            x *= 2; print_int(x);
            x /= 4; print_int(x);
            x %= 4; print_int(x);
            x <<= 3; print_int(x);
            x >>= 1; print_int(x);
            x |= 3; print_int(x);
            x &= 6; print_int(x);
            x ^= 5; print_int(x);
            return 0;
        }
        """
    ) == [15, 12, 24, 6, 2, 16, 8, 11, 2, 7]


def test_control_flow():
    assert run_all_levels(
        """
        int main() {
            int i; int total = 0;
            for (i = 0; i < 10; i++) {
                if (i == 3) { continue; }
                if (i == 8) { break; }
                total += i;
            }
            print_int(total);
            while (total > 20) { total -= 7; }
            print_int(total);
            do { total++; } while (total < 18);
            print_int(total);
            return 0;
        }
        """
    ) == [25, 18, 19]


def test_nested_loops():
    assert run_all_levels(
        """
        int main() {
            int i; int j; int c = 0;
            for (i = 0; i < 5; i++) {
                for (j = 0; j <= i; j++) { c++; }
            }
            print_int(c);
            return 0;
        }
        """
    ) == [15]


def test_zero_trip_loop():
    assert run_all_levels(
        """
        int main() {
            int i; int c = 0;
            for (i = 10; i < 5; i++) { c++; }
            print_int(c);
            while (0) { c++; }
            print_int(c);
            return 0;
        }
        """
    ) == [0, 0]


def test_globals_and_arrays():
    assert run_all_levels(
        """
        int g = 7;
        int arr[5] = {10, 20, 30};
        int main() {
            print_int(g);
            print_int(arr[0] + arr[1] + arr[2] + arr[3] + arr[4]);
            arr[4] = g;
            g = arr[1];
            print_int(arr[4]);
            print_int(g);
            return 0;
        }
        """
    ) == [7, 60, 7, 20]


def test_char_semantics():
    assert run_all_levels(
        """
        char buf[4];
        int main() {
            char c = 'A';
            buf[0] = c + 1;
            buf[1] = 300;        /* narrows to 44 */
            print_int(buf[0]);
            print_int(buf[1]);
            print_int((char) 260);
            print_char(buf[0]);
            return 0;
        }
        """
    ) == [66, 44, 4]


def test_string_literals():
    from tests.conftest import run_c

    res = run_c(
        """
        int main() {
            char *s = "ok!";
            int i = 0;
            while (s[i]) { print_char(s[i]); i++; }
            print_int(i);
            return 0;
        }
        """
    )
    assert res.text == "ok!"
    assert res.output == [3]


def test_pointers_and_address_of():
    assert run_all_levels(
        """
        int main() {
            int x = 5;
            int *p = &x;
            *p = 9;
            print_int(x);
            print_int(*p + 1);
            return 0;
        }
        """
    ) == [9, 10]


def test_pointer_arithmetic():
    assert run_all_levels(
        """
        int arr[6] = {1, 2, 3, 4, 5, 6};
        int main() {
            int *p = arr;
            int *q = &arr[4];
            print_int(*(p + 2));
            print_int(q - p);
            p += 3;
            print_int(*p);
            p--;
            print_int(*p);
            print_int(p < q);
            return 0;
        }
        """
    ) == [3, 4, 4, 3, 1]


def test_nested_struct_members():
    assert run_all_levels(
        """
        struct point { int x; int y; };
        struct rect { struct point a; struct point b; };
        struct rect r;
        int main() {
            struct point p;
            p.x = 3; p.y = 4;
            r.a.x = p.x;
            r.b.y = p.y * 2;
            print_int(r.a.x + r.b.y);
            return 0;
        }
        """
    ) == [11]


def test_struct_member_access():
    assert run_all_levels(
        """
        struct point { int x; int y; };
        struct point g;
        int main() {
            struct point p;
            struct point *q = &p;
            p.x = 3;
            q->y = 4;
            g.x = p.x + q->y;
            print_int(g.x);
            print_int(p.y);
            return 0;
        }
        """
    ) == [7, 4]


def test_struct_in_array():
    assert run_all_levels(
        """
        struct item { int key; int val; };
        struct item items[4];
        int main() {
            int i;
            for (i = 0; i < 4; i++) {
                items[i].key = i;
                items[i].val = i * i;
            }
            print_int(items[3].val + items[2].key);
            return 0;
        }
        """
    ) == [11]


def test_malloc_linked_list():
    assert run_all_levels(
        """
        struct node { int v; struct node *next; };
        int main() {
            struct node *head = 0;
            int i; int total = 0;
            for (i = 0; i < 5; i++) {
                struct node *n = (struct node *) malloc(sizeof(struct node));
                n->v = i * 10;
                n->next = head;
                head = n;
            }
            while (head) { total += head->v; head = head->next; }
            print_int(total);
            return 0;
        }
        """
    ) == [100]


def test_functions_and_recursion():
    assert run_all_levels(
        """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int main() {
            print_int(fib(12));
            print_int(fact(7));
            return 0;
        }
        """
    ) == [144, 5040]


def test_mutual_recursion():
    # No prototypes needed: sema collects all signatures before bodies.
    assert run_all_levels(
        """
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main() { print_int(is_even(10)); print_int(is_odd(7)); return 0; }
        """
    ) == [1, 1]


def test_many_arguments():
    assert run_all_levels(
        """
        int sum6(int a, int b, int c, int d, int e, int f) {
            return a + b + c + d + e + f;
        }
        int main() { print_int(sum6(1, 2, 3, 4, 5, 6)); return 0; }
        """
    ) == [21]


def test_void_function():
    assert run_all_levels(
        """
        int counter = 0;
        void tick() { counter++; }
        int main() { tick(); tick(); tick(); print_int(counter); return 0; }
        """
    ) == [3]


def test_doubles():
    assert run_all_levels(
        """
        int main() {
            double a = 1.5;
            double b = a * 4.0;
            double c = b / 3.0;
            print_int((int) b);
            print_int((int) (c * 100.0));
            print_int(a < b);
            print_int(b == 6.0);
            print_int((int) -2.7);
            return 0;
        }
        """
    ) == [6, 200, 1, 1, -2]


def test_double_int_mixing():
    assert run_all_levels(
        """
        double half(int x) { return x / 2.0; }
        int main() {
            double d = half(7);
            print_int((int) (d * 10.0));
            int i = 3;
            d = i;        /* implicit int -> double */
            print_int((int) (d + 0.5));
            i = 2.9;      /* implicit double -> int: truncation */
            print_int(i);
            return 0;
        }
        """
    ) == [35, 3, 2]


def test_double_array_and_global():
    assert run_all_levels(
        """
        double weights[4] = {0.5, 1.5, 2.5, 3.5};
        double total = 0.0;
        int main() {
            int i;
            for (i = 0; i < 4; i++) { total = total + weights[i]; }
            print_int((int) total);
            return 0;
        }
        """
    ) == [8]


def test_deep_expression():
    assert run_all_levels(
        """
        int main() {
            int a = 1; int b = 2; int c = 3; int d = 4;
            print_int(((a + b) * (c + d) - (a * d)) << 1 | (b & c));
            return 0;
        }
        """
    ) == [(((1 + 2) * (3 + 4) - 4) << 1) | 2]


def test_global_shadowed_by_local():
    assert run_all_levels(
        """
        int x = 100;
        int main() {
            int x = 5;
            { int x = 7; print_int(x); }
            print_int(x);
            return 0;
        }
        """
    ) == [7, 5]


def test_halt_builtin_stops():
    assert output_of(
        """
        int main() {
            print_int(1);
            halt();
            print_int(2);
            return 0;
        }
        """
    ) == [1]
