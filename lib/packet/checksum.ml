(* The range check runs once up front, so the unrolled main loop can use
   unchecked byte loads: the calibration loop in [bench perf] and every
   simulated header verification land here.  Four 16-bit words per
   iteration; each word is <= 0xFFFF, so the 63-bit accumulator cannot
   overflow for any [Bytes]-sized input. *)
let sum b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.sum: range";
  let u8 = Bytes.unsafe_get in
  let acc = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let p = !i in
    acc :=
      !acc
      + ((Char.code (u8 b p) lsl 8) + Char.code (u8 b (p + 1)))
      + ((Char.code (u8 b (p + 2)) lsl 8) + Char.code (u8 b (p + 3)))
      + ((Char.code (u8 b (p + 4)) lsl 8) + Char.code (u8 b (p + 5)))
      + ((Char.code (u8 b (p + 6)) lsl 8) + Char.code (u8 b (p + 7)));
    i := p + 8
  done;
  (* Bounds-checked tail: at most 7 bytes, odd trailing byte padded with
     a zero low half as per RFC 1071. *)
  while !i + 1 < stop do
    acc :=
      !acc + (Char.code (Bytes.get b !i) lsl 8) + Char.code (Bytes.get b (!i + 1));
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Char.code (Bytes.get b !i) lsl 8);
  !acc

let finish s =
  let s = (s land 0xFFFF) + (s lsr 16) in
  let s = (s land 0xFFFF) + (s lsr 16) in
  lnot s land 0xFFFF

let compute b ~off ~len = finish (sum b ~off ~len)

let verify b ~off ~len =
  let s = sum b ~off ~len in
  let s = (s land 0xFFFF) + (s lsr 16) in
  let s = (s land 0xFFFF) + (s lsr 16) in
  s = 0xFFFF

(* RFC 1624: HC' = ~(~HC + ~m + m'). *)
let update16 ~old_cksum ~old_word ~new_word =
  let s = (lnot old_cksum land 0xFFFF) + (lnot old_word land 0xFFFF) + new_word in
  let s = (s land 0xFFFF) + (s lsr 16) in
  let s = (s land 0xFFFF) + (s lsr 16) in
  lnot s land 0xFFFF

let pseudo_header_sum_i ~src ~dst ~proto ~len =
  ((src lsr 16) land 0xFFFF) + (src land 0xFFFF)
  + ((dst lsr 16) land 0xFFFF)
  + (dst land 0xFFFF) + proto + len
