type 'a t = Leaf | Node of { value : 'a option; zero : 'a t; one : 'a t }

let empty = Leaf

let node value zero one =
  match (value, zero, one) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; zero; one }

(* Bit [i] (0 = most significant) of the native-int address bits. *)
let bit u i = (u lsr (31 - i)) land 1

let rec add_at t ~addr ~len ~depth v =
  match t with
  | Leaf ->
      if depth = len then Node { value = Some v; zero = Leaf; one = Leaf }
      else if bit addr depth = 0 then
        Node { value = None; zero = add_at Leaf ~addr ~len ~depth:(depth + 1) v; one = Leaf }
      else Node { value = None; zero = Leaf; one = add_at Leaf ~addr ~len ~depth:(depth + 1) v }
  | Node n ->
      if depth = len then Node { n with value = Some v }
      else if bit addr depth = 0 then
        Node { n with zero = add_at n.zero ~addr ~len ~depth:(depth + 1) v }
      else Node { n with one = add_at n.one ~addr ~len ~depth:(depth + 1) v }

let add t p v = add_at t ~addr:(Prefix.bits p) ~len:(Prefix.length p) ~depth:0 v

let rec remove_at t ~addr ~len ~depth =
  match t with
  | Leaf -> Leaf
  | Node n ->
      if depth = len then node None n.zero n.one
      else if bit addr depth = 0 then
        node n.value (remove_at n.zero ~addr ~len ~depth:(depth + 1)) n.one
      else node n.value n.zero (remove_at n.one ~addr ~len ~depth:(depth + 1))

let remove t p = remove_at t ~addr:(Prefix.bits p) ~len:(Prefix.length p) ~depth:0

let find t p =
  let addr = Prefix.bits p and len = Prefix.length p in
  let rec go t depth =
    match t with
    | Leaf -> None
    | Node n ->
        if depth = len then n.value
        else if bit addr depth = 0 then go n.zero (depth + 1)
        else go n.one (depth + 1)
  in
  go t 0

let lookup t a =
  let u = Int32.to_int a land 0xFFFFFFFF in
  let rec go t depth best =
    match t with
    | Leaf -> best
    | Node n ->
        let best =
          match n.value with
          | Some v -> Some (Prefix.of_bits u depth, v)
          | None -> best
        in
        if depth = 32 then best
        else if bit u depth = 0 then go n.zero (depth + 1) best
        else go n.one (depth + 1) best
  in
  go t 0 None

let bindings t =
  (* Reconstruct each prefix from the path bits. *)
  let rec go t depth bits acc =
    match t with
    | Leaf -> acc
    | Node n ->
        let acc =
          match n.value with
          | Some v ->
              (Prefix.of_bits (bits lsl (32 - depth)) depth, v) :: acc
          | None -> acc
        in
        let acc = go n.zero (depth + 1) (bits lsl 1) acc in
        go n.one (depth + 1) ((bits lsl 1) lor 1) acc
  in
  go t 0 0 []

let rec size = function
  | Leaf -> 0
  | Node n ->
      (match n.value with Some _ -> 1 | None -> 0) + size n.zero + size n.one

let rec node_count = function
  | Leaf -> 0
  | Node n -> 1 + node_count n.zero + node_count n.one
