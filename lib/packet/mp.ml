let size = 64

type tag = Only | First | Intermediate | Last

let count len = if len <= 0 then 1 else (len + size - 1) / size
